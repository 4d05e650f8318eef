package netsim

import (
	"math"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
)

// This file implements the two classic BGP timing mechanisms that shape
// convergence — and therefore path hunting, which is where zombie paths
// come from. Both are opt-in (zero value = disabled) so the default
// simulator behaviour stays simple and the experiment calibrations stay
// put.
//
//   - MRAI (MinRouteAdvertisementIntervalTimer, RFC 4271 §9.2.1.1):
//     announcements toward a neighbor are batched per prefix; only the
//     latest decision within an MRAI window is sent. Withdrawals are not
//     delayed (the common WRATE=off implementation choice).
//
//   - Route flap damping (RFC 2439, discussed by the paper's related
//     work as exacerbating convergence): a per-(neighbor, prefix) penalty
//     accumulates on each withdrawal only — re-announcements add none.
//     Once it crosses the suppress threshold, announcements from that
//     neighbor for that prefix are ignored until the penalty decays below
//     the reuse threshold.

// MRAIConfig enables MinRouteAdvertisementInterval batching.
type MRAIConfig struct {
	// Interval is the minimum spacing between successive announcements
	// of the same prefix to the same neighbor. 0 disables MRAI.
	Interval time.Duration
}

// RFDConfig enables route flap damping at every router.
type RFDConfig struct {
	// Enabled turns damping on.
	Enabled bool
	// WithdrawPenalty accumulates on each withdrawal (default 1000).
	WithdrawPenalty float64
	// Suppress threshold (default 3000).
	Suppress float64
	// Reuse threshold (default 750).
	Reuse float64
	// HalfLife of the exponential decay (default 15 min).
	HalfLife time.Duration
}

func (c RFDConfig) withdrawPenalty() float64 {
	if c.WithdrawPenalty <= 0 {
		return 1000
	}
	return c.WithdrawPenalty
}

func (c RFDConfig) suppress() float64 {
	if c.Suppress <= 0 {
		return 3000
	}
	return c.Suppress
}

func (c RFDConfig) reuse() float64 {
	if c.Reuse <= 0 {
		return 750
	}
	return c.Reuse
}

func (c RFDConfig) halfLife() time.Duration {
	if c.HalfLife <= 0 {
		return 15 * time.Minute
	}
	return c.HalfLife
}

// mraiState tracks the per-(neighbor, prefix) advertisement timer and the
// latest decision pending behind it.
type mraiState struct {
	// nextAllowed is when the next announcement may be sent.
	nextAllowed time.Time
	// pending is the latest export decision queued behind the timer
	// (nil = nothing pending).
	pending *exported
	// timerArmed reports whether a flush event is scheduled.
	timerArmed bool
}

type mraiKey struct {
	to int // link index
	p  netip.Prefix
}

// sendAnnounceMRAI wraps sendLink with MRAI batching.
func (r *router) sendAnnounceMRAI(to int, p netip.Prefix, e exported) {
	cfg := r.sim.cfg.MRAI
	if cfg.Interval <= 0 {
		r.sendLink(to, p, e)
		return
	}
	if r.mrai == nil {
		r.mrai = make(map[mraiKey]*mraiState)
	}
	k := mraiKey{to: to, p: p}
	st := r.mrai[k]
	if st == nil {
		st = &mraiState{}
		r.mrai[k] = st
	}
	now := r.sim.now
	if !now.Before(st.nextAllowed) {
		// Timer expired: send immediately and restart it.
		st.nextAllowed = now.Add(cfg.Interval)
		st.pending = nil
		r.sendLink(to, p, e)
		return
	}
	// Queue the decision behind the running timer, replacing any older
	// pending one (implicit update).
	pending := e
	st.pending = &pending
	if !st.timerArmed {
		st.timerArmed = true
		r.sim.schedule(st.nextAllowed, func() { r.flushMRAI(k) })
	}
}

func (r *router) flushMRAI(k mraiKey) {
	st := r.mrai[k]
	if st == nil {
		return
	}
	st.timerArmed = false
	if st.pending == nil {
		return
	}
	e := *st.pending
	st.pending = nil
	// The queued decision may be stale: only send if it still matches
	// the current Adj-RIB-Out entry.
	if entry := r.rib[k.p]; entry != nil && entry.out != nil {
		if cur := entry.out[k.to]; cur.sent() && cur.path.Equal(e.path) && aggEqual(cur.agg, e.agg) {
			st.nextAllowed = r.sim.now.Add(r.sim.cfg.MRAI.Interval)
			r.sendLink(k.to, k.p, e)
		}
	}
}

// cancelMRAI drops any pending announcement for (to, p) — a withdrawal
// supersedes it.
func (r *router) cancelMRAI(to int, p netip.Prefix) {
	if r.mrai == nil {
		return
	}
	if st := r.mrai[mraiKey{to: to, p: p}]; st != nil {
		st.pending = nil
	}
}

// rfdState is the per-(neighbor, prefix) damping figure-of-merit.
type rfdState struct {
	penalty    float64
	lastUpdate time.Time
	suppressed bool
}

type rfdKey struct {
	from bgp.ASN
	p    netip.Prefix
}

// decayed returns the penalty decayed to `now`.
func (st *rfdState) decayed(now time.Time, halfLife time.Duration) float64 {
	if st.lastUpdate.IsZero() || !now.After(st.lastUpdate) {
		return st.penalty
	}
	elapsed := now.Sub(st.lastUpdate)
	return st.penalty * math.Exp2(-float64(elapsed)/float64(halfLife))
}

// rfdPenalize registers a flap event (a withdrawal) and updates the
// suppression state. Returns whether the prefix is suppressed.
func (r *router) rfdPenalize(from bgp.ASN, p netip.Prefix) bool {
	cfg := r.sim.cfg.RFD
	if !cfg.Enabled {
		return false
	}
	if r.rfd == nil {
		r.rfd = make(map[rfdKey]*rfdState)
	}
	k := rfdKey{from: from, p: p}
	st := r.rfd[k]
	if st == nil {
		st = &rfdState{}
		r.rfd[k] = st
	}
	now := r.sim.now
	st.penalty = st.decayed(now, cfg.halfLife()) + cfg.withdrawPenalty()
	st.lastUpdate = now
	if st.penalty >= cfg.suppress() {
		st.suppressed = true
	}
	return st.suppressed
}

// rfdSuppressed reports whether announcements from `from` for p are
// currently suppressed, updating the reuse state.
func (r *router) rfdSuppressed(from bgp.ASN, p netip.Prefix) bool {
	cfg := r.sim.cfg.RFD
	if !cfg.Enabled || r.rfd == nil {
		return false
	}
	st := r.rfd[rfdKey{from: from, p: p}]
	if st == nil || !st.suppressed {
		return false
	}
	now := r.sim.now
	if st.decayed(now, cfg.halfLife()) < cfg.reuse() {
		st.suppressed = false
		st.penalty = st.decayed(now, cfg.halfLife())
		st.lastUpdate = now
		return false
	}
	return true
}
