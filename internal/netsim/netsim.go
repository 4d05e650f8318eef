// Package netsim is an event-driven, per-prefix BGP propagation simulator
// over an AS-level topology. It models the pieces of Internet routing the
// zombie phenomenon lives in: Adj-RIB-In / Loc-RIB / Adj-RIB-Out per AS,
// the BGP decision process with Gao–Rexford (valley-free) export policies,
// asynchronous per-link propagation delays (which produce path hunting on
// withdrawals), route-collector feeds, RPKI origin validation, and — most
// importantly — the fault models that create BGP zombies:
//
//   - link wedges: a directed AS-to-AS session silently stops delivering
//     messages (the TCP zero-window failure mode of RFC 9687) while
//     remaining nominally Established;
//   - withdrawal suppression: a link or collector session drops withdrawal
//     messages with some probability (misbehaving filters/peers);
//   - stuck RIBs: a router propagates a withdrawal downstream but fails to
//     remove the route from its own RIB, so a later session reset
//     re-announces it (the paper's "zombie resurrection").
//
// The simulator is fully deterministic for a given seed.
package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
)

// Config parameterizes a Simulator.
type Config struct {
	Seed uint64

	// ROA is the RPKI registry consulted for origin validation. Nil
	// disables validation entirely.
	ROA *rpki.Registry

	// MRAI enables MinRouteAdvertisementInterval batching of
	// announcements (RFC 4271 §9.2.1.1). Zero disables it.
	MRAI MRAIConfig
	// RFD enables route flap damping (RFC 2439). Disabled by default.
	RFD RFDConfig
}

// The simulator's delays, each derived deterministically from the seed.
const (
	// minLinkDelay/maxLinkDelay bound the per-link propagation delay.
	minLinkDelay = 20 * time.Millisecond
	maxLinkDelay = 800 * time.Millisecond
	// collectorDelay bounds the delay from a peer AS to its collectors
	// (derived per peer/collector pair).
	collectorDelay = 200 * time.Millisecond
	// rovRevalidateDelay bounds how long an ROV-enforcing AS takes to act
	// on a ROA change (RPKI time-of-flight).
	rovRevalidateDelay = 2 * time.Hour
)

// Stats counts simulator activity, useful in benchmarks and sanity checks.
type Stats struct {
	Events           uint64
	MessagesSent     uint64
	MessagesDropped  uint64
	CollectorRecords uint64
	QueuePeak        int // the most events pending at once
}

// Simulator drives BGP propagation over a topology.
type Simulator struct {
	graph  *topology.Graph
	cfg    Config
	rfd    rfdDamping // read only when cfg.RFD.Enabled
	faults *FaultSet

	routers map[bgp.ASN]*router
	rov     map[bgp.ASN]rpki.ROVPolicy

	queue   minHeap[event]
	msgs    slab[message] // the BGP messages of queued events
	fns     slab[func()]  // the scenario ops of queued events
	routes  slab[route]   // every router's received and local routes
	seq     uint64
	now     time.Time
	started bool

	sink         Sink
	collSessions map[bgp.ASN][]Session

	stats Stats
}

// New creates a simulator over g.
func New(g *topology.Graph, cfg Config) *Simulator {
	return newSimulator(g, cfg, buildLinks(g, cfg))
}

// newSimulator creates a simulator whose routers read the given link
// tables; the tables are not modified.
func newSimulator(g *topology.Graph, cfg Config, links map[bgp.ASN][]link) *Simulator {
	s := &Simulator{
		graph:        g,
		cfg:          cfg,
		rfd:          rfdDamping{rfdSuppress, rfdHalfLife},
		faults:       newFaultSet(cfg.Seed),
		routers:      make(map[bgp.ASN]*router, g.Len()),
		rov:          make(map[bgp.ASN]rpki.ROVPolicy),
		collSessions: make(map[bgp.ASN][]Session),
	}
	asns := g.ASNs()
	rs := make([]router, len(asns))
	npeers := 0
	for i, asn := range asns {
		rs[i] = router{sim: s, asn: asn, links: links[asn]}
		s.routers[asn] = &rs[i]
		npeers += len(rs[i].links)
	}
	peers := make([]*router, 0, npeers)
	for i := range rs {
		r := &rs[i]
		for _, l := range r.links {
			peers = append(peers, s.routers[l.to])
		}
		r.peers = peers[len(peers)-len(r.links):]
	}
	return s
}

// Faults exposes the simulator's fault set for scenario construction.
func (s *Simulator) Faults() *FaultSet { return s.faults }

// Stats returns activity counters.
func (s *Simulator) Stats() Stats { return s.stats }

// SetSink attaches the collector sink receiving peer session activity.
func (s *Simulator) SetSink(sink Sink) { s.sink = sink }

// SetROVPolicy configures how an AS applies origin validation.
func (s *Simulator) SetROVPolicy(asn bgp.ASN, p rpki.ROVPolicy) {
	s.rov[asn] = p
}

// AddCollectorSession registers a collector feed from a peer AS. One AS
// may have several sessions (several router addresses), as RIS peers do.
func (s *Simulator) AddCollectorSession(sess Session) error {
	if !s.graph.Contains(sess.PeerAS) {
		return fmt.Errorf("netsim: collector session from unknown %s", sess.PeerAS)
	}
	s.collSessions[sess.PeerAS] = append(s.collSessions[sess.PeerAS], sess)
	return nil
}

// event is one scheduled delivery: the instant as Unix nanoseconds, the
// scheduling sequence, and a BGP message's or scenario op's slab handle.
// Holding no pointer, the heap is never scanned by the GC. UnixNano
// round-trips every simulated instant: (at, seq) order is time.Time order.
type event struct {
	atNanos int64
	seq     uint64
	msg, fn uint32 // exactly one is set
}

// before is the event queue order: time, then scheduling sequence.
func (e event) before(o event) bool {
	if e.atNanos != o.atNanos {
		return e.atNanos < o.atNanos
	}
	return e.seq < o.seq
}

// message is a BGP message in flight: x for p over r's link i, or on r's
// collector session i; x is unset for a withdrawal, as in Adj-RIB-Out.
// Scenario ops (resets, clears, storms, MRAI flushes...) are closures in
// their own slab, so a storm's ticks, all queued at once, stay small.
type message struct {
	collector bool
	i         int32
	r         *router // the sender
	p         netip.Prefix
	x         exported
}

// schedule queues fn to run at at.
func (s *Simulator) schedule(at time.Time, fn func()) {
	s.push(at, event{fn: s.fns.put(fn)})
}

// send queues m for delivery at at.
func (s *Simulator) send(at time.Time, m message) {
	s.push(at, event{msg: s.msgs.put(m)})
}

// push queues ev at at, or at now if at has passed once the run started.
func (s *Simulator) push(at time.Time, ev event) {
	if s.started && at.Before(s.now) {
		at = s.now
	}
	s.seq++
	ev.atNanos, ev.seq = at.UnixNano(), s.seq
	s.queue.push(ev)
	s.stats.QueuePeak = max(s.stats.QueuePeak, s.queue.len())
}

// step pops the next event, advances the clock to it, frees its slab slot
// and delivers it.
func (s *Simulator) step() {
	ev := s.queue.pop()
	s.now = time.Unix(0, ev.atNanos).UTC()
	s.stats.Events++
	if ev.fn != 0 {
		fn := *s.fns.at(ev.fn)
		s.fns.release(ev.fn)
		fn()
		return
	}
	m := *s.msgs.at(ev.msg)
	s.msgs.release(ev.msg)
	withdraw := !m.x.sent()
	if m.collector {
		if s.faults.dropCollectorMessage(m.r.asn, m.p, withdraw, s.now) {
			s.stats.MessagesDropped++
			return
		}
		s.stats.CollectorRecords++
		sess := s.collSessions[m.r.asn][m.i]
		if withdraw {
			s.sinkOrNop().PeerWithdraw(s.now, sess, m.p)
		} else {
			s.sinkOrNop().PeerAnnounce(s.now, sess, m.p, RouteAttrs{Path: m.x.path, Aggregator: m.x.agg})
		}
		return
	}
	to := m.r.peers[m.i]
	if s.faults.dropLinkMessage(m.r.asn, to.asn, m.p, withdraw, s.now) {
		s.stats.MessagesDropped++
	} else if withdraw {
		to.receiveWithdraw(m.r.links[m.i].rev, m.p)
	} else {
		to.receiveAnnounce(m.r.links[m.i].rev, m.p, m.x.path, m.x.agg)
	}
}

// Run processes events until the queue is empty or the next event is after
// `until`. It returns the number of events processed.
func (s *Simulator) Run(until time.Time) int {
	s.started = true
	untilNanos := until.UnixNano()
	n := 0
	for s.queue.len() > 0 && s.queue.peek().atNanos <= untilNanos {
		s.step()
		n++
	}
	if s.now.Before(until) {
		s.now = until
	}
	return n
}

// RunAll drains the event queue completely.
func (s *Simulator) RunAll() int {
	s.started = true
	n := 0
	for s.queue.len() > 0 {
		s.step()
		n++
	}
	return n
}

// FNV-1a, computed inline: these run on every message send and every
// fault decision, and the hash/fnv API costs a hasher allocation per
// call. The constants and byte order match hash/fnv exactly, so delays
// and fault draws are bit-identical to the original implementation
// (fnvHashesMatchStdlib in the tests pins this).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hash64(parts ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(p >> (8 * i)))
			h *= fnvPrime64
		}
	}
	return h
}

func prefixHash(p netip.Prefix) uint64 {
	a := p.Addr().As16()
	h := uint64(fnvOffset64)
	for _, b := range a {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	h ^= uint64(byte(p.Bits()))
	h *= fnvPrime64
	return h
}

// linkDelay returns the deterministic propagation delay for a directed AS
// link.
func (c *Config) linkDelay(from, to bgp.ASN) time.Duration {
	h := hash64(c.Seed, uint64(from), uint64(to), 0x11d)
	return minLinkDelay + time.Duration(h%uint64(maxLinkDelay-minLinkDelay))
}

// collectorSessionDelay is derived per (peer AS, collector), NOT per
// session address: all sessions of one peer AS to the same collector see
// updates at the same instant, as they reflect a single router's RIB.
func (s *Simulator) collectorSessionDelay(sess Session) time.Duration {
	h := hash64(s.cfg.Seed, uint64(sess.PeerAS), hashString(sess.Collector), 0xc0)
	return time.Duration(h % uint64(collectorDelay))
}

func hashString(str string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= fnvPrime64
	}
	return h
}
