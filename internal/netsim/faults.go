package netsim

import (
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
)

// PrefixMatcher selects which prefixes a fault applies to. A nil matcher
// matches everything.
type PrefixMatcher func(netip.Prefix) bool

func matches(m PrefixMatcher, p netip.Prefix) bool {
	return m == nil || m(p)
}

// MatchWithin returns a matcher for prefixes contained in base.
func MatchWithin(base netip.Prefix) PrefixMatcher {
	return func(p netip.Prefix) bool {
		return base.Overlaps(p) && base.Bits() <= p.Bits()
	}
}

// wedge is a window during which a directed link delivers nothing while
// the session remains nominally Established. The link is the key it is
// filed under in FaultSet.
type wedge struct {
	afi        bgp.AFI // 0 = both families
	start, end time.Time
	match      PrefixMatcher
}

// collDrop is a probabilistic withdrawal suppressor on a peer AS's
// collector sessions.
type collDrop struct {
	prob  float64
	match PrefixMatcher
}

// linkDrop is a probabilistic withdrawal suppressor on a directed AS link,
// optionally limited to a time window (zero times = always active).
type linkDrop struct {
	prob       float64
	match      PrefixMatcher
	start, end time.Time
}

func (d *linkDrop) activeAt(at time.Time) bool {
	if !d.start.IsZero() && at.Before(d.start) {
		return false
	}
	if !d.end.IsZero() && !at.Before(d.end) {
		return false
	}
	return true
}

// FaultSet holds every configured fault. All probabilistic decisions are
// deterministic functions of (seed, link or AS, prefix, time), so a
// scenario replays identically and — importantly — all sessions of one
// peer AS make the same drop decision at the same instant, matching the
// paper's observation of identical zombie counts on a noisy peer's two
// router addresses.
type FaultSet struct {
	seed uint64

	wedges     map[[2]bgp.ASN][]wedge
	collWedges map[bgp.ASN][]wedge
	linkDrops  map[[2]bgp.ASN][]linkDrop
	collDrops  map[bgp.ASN]collDrop

	// stuckRIB routers propagate withdrawals downstream but keep the
	// route locally; a later session reset resurrects it.
	stuckRIB map[bgp.ASN]PrefixMatcher

	globalDropProb float64
	globalMatch    PrefixMatcher
}

func newFaultSet(seed uint64) *FaultSet {
	return &FaultSet{
		seed:       seed,
		wedges:     make(map[[2]bgp.ASN][]wedge),
		collWedges: make(map[bgp.ASN][]wedge),
		linkDrops:  make(map[[2]bgp.ASN][]linkDrop),
		collDrops:  make(map[bgp.ASN]collDrop),
		stuckRIB:   make(map[bgp.ASN]PrefixMatcher),
	}
}

// WedgeLink silently drops every message from `from` to `to` for matching
// prefixes during [start, end). The session stays Established — the
// RFC 9687 zero-window failure mode. afi restricts the wedge to one
// address family (0 = both), modelling per-family BGP sessions.
func (f *FaultSet) WedgeLink(from, to bgp.ASN, afi bgp.AFI, start, end time.Time, match PrefixMatcher) {
	k := [2]bgp.ASN{from, to}
	f.wedges[k] = append(f.wedges[k], wedge{afi: afi, start: start, end: end, match: match})
}

// WedgeCollectorSessions silently drops every message (announcements and
// withdrawals) from peerAS toward its collectors for matching prefixes
// during [start, end), while the sessions remain Established. The
// collector's view of the peer freezes — the long-lived "noisy peer"
// signature whose zombies are all duplicates.
func (f *FaultSet) WedgeCollectorSessions(peerAS bgp.ASN, afi bgp.AFI, start, end time.Time, match PrefixMatcher) {
	f.collWedges[peerAS] = append(f.collWedges[peerAS], wedge{afi: afi, start: start, end: end, match: match})
}

// DropWithdrawals makes the directed link from→to lose withdrawal
// messages for matching prefixes with probability prob.
func (f *FaultSet) DropWithdrawals(from, to bgp.ASN, prob float64, match PrefixMatcher) {
	k := [2]bgp.ASN{from, to}
	f.linkDrops[k] = append(f.linkDrops[k], linkDrop{prob: prob, match: match})
}

// DropWithdrawalsDuring is DropWithdrawals limited to [start, end). With
// prob 1 over a short window starting at a withdrawal it pins the
// path-hunting exploration route into the receiver's RIB — the mechanism
// behind stuck routes whose path differs from the pre-withdrawal one.
func (f *FaultSet) DropWithdrawalsDuring(from, to bgp.ASN, prob float64, match PrefixMatcher, start, end time.Time) {
	k := [2]bgp.ASN{from, to}
	f.linkDrops[k] = append(f.linkDrops[k], linkDrop{prob: prob, match: match, start: start, end: end})
}

// DropCollectorWithdrawals makes every collector session of peerAS lose
// withdrawal messages with probability prob — the "noisy peer" model. The
// decision is keyed on (peer AS, prefix, time), so all sessions of the AS
// drop consistently.
func (f *FaultSet) DropCollectorWithdrawals(peerAS bgp.ASN, prob float64, match PrefixMatcher) {
	f.collDrops[peerAS] = collDrop{prob: prob, match: match}
}

// GlobalWithdrawalDrop gives every directed inter-AS link a small
// probability of losing any given withdrawal, producing background zombie
// emergence across the topology.
func (f *FaultSet) GlobalWithdrawalDrop(prob float64, match PrefixMatcher) {
	f.globalDropProb = prob
	f.globalMatch = match
}

// StickRIB marks a router as failing to remove matching routes from its
// RIB on withdrawal while still propagating the withdrawal downstream.
func (f *FaultSet) StickRIB(asn bgp.ASN, match PrefixMatcher) {
	f.stuckRIB[asn] = match
}

func (f *FaultSet) ribStuck(asn bgp.ASN, p netip.Prefix) bool {
	m, ok := f.stuckRIB[asn]
	if !ok {
		return false
	}
	return matches(m, p)
}

// chance converts a hash into a deterministic Bernoulli draw.
func chance(h uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	const span = 1 << 32
	return float64(h%span)/span < prob
}

// dropLinkMessage reports whether a message from→to about p at time at is
// lost, considering wedges, per-link withdrawal drops and the global
// withdrawal drop rate.
func (f *FaultSet) dropLinkMessage(from, to bgp.ASN, p netip.Prefix, isWithdraw bool, at time.Time) bool {
	if wedgeApplies(f.wedges[[2]bgp.ASN{from, to}], p, at) {
		return true
	}
	if !isWithdraw {
		return false
	}
	for i := range f.linkDrops[[2]bgp.ASN{from, to}] {
		d := &f.linkDrops[[2]bgp.ASN{from, to}][i]
		if !d.activeAt(at) || !matches(d.match, p) {
			continue
		}
		h := hash64(f.seed, uint64(from), uint64(to), prefixHash(p), uint64(at.UnixMilli()), 0x77d, uint64(i))
		if chance(h, d.prob) {
			return true
		}
	}
	if f.globalDropProb > 0 && matches(f.globalMatch, p) {
		h := hash64(f.seed, uint64(from), uint64(to), prefixHash(p), uint64(at.UnixMilli()), 0x91)
		if chance(h, f.globalDropProb) {
			return true
		}
	}
	return false
}

// dropCollectorMessage reports whether a withdrawal from peerAS toward its
// collectors is lost. Keyed on the AS (not the session) so all the AS's
// sessions agree.
func wedgeApplies(ws []wedge, p netip.Prefix, at time.Time) bool {
	if len(ws) == 0 {
		return false
	}
	afi := bgp.PrefixAFI(p)
	for _, w := range ws {
		if w.afi != 0 && w.afi != afi {
			continue
		}
		if !matches(w.match, p) {
			continue
		}
		if !at.Before(w.start) && at.Before(w.end) {
			return true
		}
	}
	return false
}

func (f *FaultSet) dropCollectorMessage(peerAS bgp.ASN, p netip.Prefix, isWithdraw bool, at time.Time) bool {
	if wedgeApplies(f.collWedges[peerAS], p, at) {
		return true
	}
	if !isWithdraw {
		return false
	}
	d, ok := f.collDrops[peerAS]
	if !ok || !matches(d.match, p) {
		return false
	}
	h := hash64(f.seed, uint64(peerAS), prefixHash(p), uint64(at.UnixMilli()), 0xc011)
	return chance(h, d.prob)
}
