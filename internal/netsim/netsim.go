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

	// MinLinkDelay/MaxLinkDelay bound the per-link propagation delay
	// (deterministically derived per link from the seed). Defaults:
	// 20ms–800ms.
	MinLinkDelay time.Duration
	MaxLinkDelay time.Duration

	// CollectorDelay bounds the delay from a peer AS to its collectors
	// (derived per peer/collector pair). Default: 200ms.
	CollectorDelay time.Duration

	// ROVRevalidateDelay bounds how long an ROV-enforcing AS takes to act
	// on a ROA change (RPKI time-of-flight). Default: 2h.
	ROVRevalidateDelay time.Duration

	// ROA is the RPKI registry consulted for origin validation. Nil
	// disables validation entirely.
	ROA *rpki.Registry

	// MRAI enables MinRouteAdvertisementInterval batching of
	// announcements (RFC 4271 §9.2.1.1). Zero disables it.
	MRAI MRAIConfig
	// RFD enables route flap damping (RFC 2439). Disabled by default.
	RFD RFDConfig
}

func (c *Config) minDelay() time.Duration {
	if c.MinLinkDelay <= 0 {
		return 20 * time.Millisecond
	}
	return c.MinLinkDelay
}

func (c *Config) maxDelay() time.Duration {
	if c.MaxLinkDelay <= c.minDelay() {
		return c.minDelay() + 780*time.Millisecond
	}
	return c.MaxLinkDelay
}

func (c *Config) collectorDelay() time.Duration {
	if c.CollectorDelay <= 0 {
		return 200 * time.Millisecond
	}
	return c.CollectorDelay
}

func (c *Config) rovDelay() time.Duration {
	if c.ROVRevalidateDelay <= 0 {
		return 2 * time.Hour
	}
	return c.ROVRevalidateDelay
}

// Stats counts simulator activity, useful in benchmarks and sanity checks.
type Stats struct {
	Events           uint64
	MessagesSent     uint64
	MessagesDropped  uint64
	CollectorRecords uint64
}

// Simulator drives BGP propagation over a topology.
type Simulator struct {
	graph  *topology.Graph
	cfg    Config
	faults *FaultSet

	routers map[bgp.ASN]*router
	rov     map[bgp.ASN]rpki.ROVPolicy

	queue   minHeap[event]
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

// Now returns the current simulated time.
func (s *Simulator) Now() time.Time { return s.now }

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

// event is one scheduled action. Events are stored by value in the heap,
// with the instant kept as Unix nanoseconds: scheduling allocates the
// closure only, never an event box, and the heap's hot compare-and-swap
// loop moves 24-byte single-pointer elements with an integer comparison
// instead of 40-byte time.Time pairs. UnixNano round-trips every instant
// the simulator handles (wall-clock dates well inside the int64 range),
// so the (at, seq) pop order is exactly the original one.
type event struct {
	atNanos int64
	seq     uint64
	fn      func()
}

// before is the event queue order: time, then scheduling sequence.
func (e event) before(o event) bool {
	if e.atNanos != o.atNanos {
		return e.atNanos < o.atNanos
	}
	return e.seq < o.seq
}

func (s *Simulator) schedule(at time.Time, fn func()) {
	if s.started && at.Before(s.now) {
		at = s.now
	}
	s.seq++
	s.queue.push(event{atNanos: at.UnixNano(), seq: s.seq, fn: fn})
}

// Run processes events until the queue is empty or the next event is after
// `until`. It returns the number of events processed.
func (s *Simulator) Run(until time.Time) int {
	s.started = true
	untilNanos := until.UnixNano()
	n := 0
	for s.queue.len() > 0 {
		if s.queue.peek().atNanos > untilNanos {
			break
		}
		ev := s.queue.pop()
		s.now = time.Unix(0, ev.atNanos).UTC()
		ev.fn()
		n++
		s.stats.Events++
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
		ev := s.queue.pop()
		s.now = time.Unix(0, ev.atNanos).UTC()
		ev.fn()
		n++
		s.stats.Events++
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
	min, max := c.minDelay(), c.maxDelay()
	span := uint64(max - min)
	h := hash64(c.Seed, uint64(from), uint64(to), 0x11d)
	return min + time.Duration(h%span)
}

// collectorSessionDelay is derived per (peer AS, collector), NOT per
// session address: all sessions of one peer AS to the same collector see
// updates at the same instant, as they reflect a single router's RIB.
func (s *Simulator) collectorSessionDelay(sess Session) time.Duration {
	maxD := s.cfg.collectorDelay()
	h := hash64(s.cfg.Seed, uint64(sess.PeerAS), hashString(sess.Collector), 0xc0)
	return time.Duration(h % uint64(maxD))
}

func hashString(str string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= fnvPrime64
	}
	return h
}
