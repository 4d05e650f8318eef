package netsim

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
)

// Sharded is the multi-core simulator engine: N independent Simulators
// over the same graph, config, and fault set, each owning the prefixes
// that hash to its shard. BGP state is strictly per-prefix everywhere in
// the simulator except the per-link delivery FIFO, so prefix sharding
// decomposes a scenario exactly: announcements and withdrawals are routed
// to the owning shard, while AS-level operations (session resets, route
// clears, ROA revalidation) fan out to every shard and act on each
// shard's slice of the RIBs.
//
// Collector output is recorded per shard and merged deterministically at
// every Run boundary — the same discipline internal/pipeline uses for
// chunked decode: each shard's stream is already in emission order, and
// the merge orders records by (timestamp, shard index, per-shard
// position). Session-state records fan out to every shard but are taken
// from shard 0 only, so they reach the merged stream exactly once. The
// result is bit-identical no matter whether the shards ran sequentially
// or on Parallel goroutines, and with one shard the engine reduces to the
// monolithic Simulator with a pass-through buffer.
//
// The one modelling difference versus the monolithic engine: the per-link
// FIFO (the +1ms serialization of messages sharing a directed AS link) is
// maintained per shard, so messages of prefixes in different shards no
// longer queue behind each other — as if each shard's prefixes traveled
// on their own BGP session. Within a shard the FIFO is exact.
type Sharded struct {
	shards []*Simulator
	recs   []*recordSink
	sink   Sink

	// Parallel runs the shards on concurrent goroutines inside Run and
	// RunAll. The merged output is identical either way; Parallel only
	// buys wall-clock. The fault set and ROA registry must not be mutated
	// while a parallel run is in flight.
	Parallel bool

	replayed uint64
}

// NewSharded creates a sharded simulator with nshards shards (values < 1
// mean 1). All shards share one FaultSet, so scenario faults configured
// through Faults() apply to every prefix regardless of its shard.
func NewSharded(g *topology.Graph, cfg Config, nshards int) *Sharded {
	if nshards < 1 {
		nshards = 1
	}
	s := &Sharded{
		shards: make([]*Simulator, nshards),
		recs:   make([]*recordSink, nshards),
	}
	links := buildLinks(g, cfg)
	for i := range s.shards {
		sim := newSimulator(g, cfg, links)
		if i > 0 {
			sim.faults = s.shards[0].faults
		}
		rs := &recordSink{muteState: i > 0}
		sim.SetSink(rs)
		s.shards[i] = sim
		s.recs[i] = rs
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Faults exposes the shared fault set for scenario construction.
func (s *Sharded) Faults() *FaultSet { return s.shards[0].faults }

// SetSink attaches the sink receiving the merged collector stream.
func (s *Sharded) SetSink(sink Sink) { s.sink = sink }

// shardOf returns the shard owning prefix p.
func (s *Sharded) shardOf(p netip.Prefix) *Simulator {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[prefixHash(p)%uint64(len(s.shards))]
}

// SetROVPolicy configures origin validation on every shard.
func (s *Sharded) SetROVPolicy(asn bgp.ASN, p rpki.ROVPolicy) {
	for _, sim := range s.shards {
		sim.SetROVPolicy(asn, p)
	}
}

// AddCollectorSession registers a collector feed on every shard: each
// shard exports its own prefixes on the session, and the merge interleaves
// them back into one feed.
func (s *Sharded) AddCollectorSession(sess Session) error {
	for _, sim := range s.shards {
		if err := sim.AddCollectorSession(sess); err != nil {
			return err
		}
	}
	return nil
}

// ScheduleAnnounce originates p on the shard owning it.
func (s *Sharded) ScheduleAnnounce(at time.Time, origin bgp.ASN, p netip.Prefix, agg *bgp.Aggregator) error {
	return s.shardOf(p).ScheduleAnnounce(at, origin, p, agg)
}

// ScheduleWithdraw withdraws p on the shard owning it.
func (s *Sharded) ScheduleWithdraw(at time.Time, origin bgp.ASN, p netip.Prefix) error {
	return s.shardOf(p).ScheduleWithdraw(at, origin, p)
}

// ScheduleSessionReset flaps the a↔b session on every shard: each shard
// flushes and re-advertises its own prefixes, reproducing the full-table
// flap of the monolithic engine.
func (s *Sharded) ScheduleSessionReset(at time.Time, a, b bgp.ASN) error {
	for _, sim := range s.shards {
		if err := sim.ScheduleSessionReset(at, a, b); err != nil {
			return err
		}
	}
	return nil
}

// ScheduleCollectorSessionReset flaps one collector session. The FSM
// transitions are recorded by shard 0 only; the table re-send happens per
// shard over that shard's routes.
func (s *Sharded) ScheduleCollectorSessionReset(at time.Time, sess Session) error {
	for _, sim := range s.shards {
		if err := sim.ScheduleCollectorSessionReset(at, sess); err != nil {
			return err
		}
	}
	return nil
}

// ScheduleClearRoutes clears matching routes on every shard.
func (s *Sharded) ScheduleClearRoutes(at time.Time, asn bgp.ASN, match PrefixMatcher) error {
	for _, sim := range s.shards {
		if err := sim.ScheduleClearRoutes(at, asn, match); err != nil {
			return err
		}
	}
	return nil
}

// ScheduleROARevalidation triggers revalidation on every shard.
func (s *Sharded) ScheduleROARevalidation(at time.Time) {
	for _, sim := range s.shards {
		sim.ScheduleROARevalidation(at)
	}
}

// EstablishCollectorSessions emits the initial Established transitions
// (recorded once, via shard 0).
func (s *Sharded) EstablishCollectorSessions(at time.Time) {
	for _, sim := range s.shards {
		sim.EstablishCollectorSessions(at)
	}
}

// BestRoute reports the best route for p as seen by asn (on p's shard).
func (s *Sharded) BestRoute(asn bgp.ASN, p netip.Prefix) (bgp.ASPath, bool) {
	return s.shardOf(p).BestRoute(asn, p)
}

// HasRoute reports whether asn currently has a route for p.
func (s *Sharded) HasRoute(asn bgp.ASN, p netip.Prefix) bool {
	return s.shardOf(p).HasRoute(asn, p)
}

// RouteCount returns how many ASes currently have a route for p.
func (s *Sharded) RouteCount(p netip.Prefix) int {
	return s.shardOf(p).RouteCount(p)
}

// Now returns the latest simulated time across shards (after Run they are
// all equal to the run horizon).
func (s *Sharded) Now() time.Time {
	now := s.shards[0].Now()
	for _, sim := range s.shards[1:] {
		if sim.Now().After(now) {
			now = sim.Now()
		}
	}
	return now
}

// Stats aggregates activity counters over all shards. CollectorRecords
// counts records of the merged stream, not per-shard emissions (the
// session-state bookkeeping fans out to every shard but is recorded once).
func (s *Sharded) Stats() Stats {
	var st Stats
	for _, sim := range s.shards {
		st.Events += sim.stats.Events
		st.MessagesSent += sim.stats.MessagesSent
		st.MessagesDropped += sim.stats.MessagesDropped
	}
	st.CollectorRecords = s.replayed
	return st
}

// Run advances every shard to `until`, then merges and replays the
// shards' collector records into the sink. Returns the total events
// processed.
func (s *Sharded) Run(until time.Time) int {
	n := s.runShards(func(sim *Simulator) int { return sim.Run(until) })
	s.flush()
	return n
}

// RunAll drains every shard completely, then merges and replays.
func (s *Sharded) RunAll() int {
	n := s.runShards((*Simulator).RunAll)
	s.flush()
	return n
}

func (s *Sharded) runShards(run func(*Simulator) int) int {
	if s.Parallel && len(s.shards) > 1 {
		if reg := s.shards[0].cfg.ROA; reg != nil {
			reg.Seal() // concurrent Validate must not race on the lazy sort
		}
		counts := make([]int, len(s.shards))
		var wg sync.WaitGroup
		for i, sim := range s.shards {
			wg.Add(1)
			go func(i int, sim *Simulator) {
				defer wg.Done()
				counts[i] = run(sim)
			}(i, sim)
		}
		wg.Wait()
		total := 0
		for _, c := range counts {
			total += c
		}
		return total
	}
	total := 0
	for _, sim := range s.shards {
		total += run(sim)
	}
	return total
}

// flush merges the shards' record buffers by (timestamp, shard index,
// per-shard position) and replays them into the sink. Each per-shard
// buffer is already in emission order (event times are non-decreasing),
// so a stable sort on timestamp alone realizes exactly that merge key.
func (s *Sharded) flush() {
	total := 0
	for _, rs := range s.recs {
		total += len(rs.recs)
	}
	if total == 0 {
		return
	}
	sink := s.sink
	if sink == nil {
		sink = nopSink{}
	}
	type ref struct{ shard, idx int }
	order := make([]ref, 0, total)
	for si, rs := range s.recs {
		for i := range rs.recs {
			order = append(order, ref{si, i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.recs[order[a].shard].recs[order[a].idx].at.Before(s.recs[order[b].shard].recs[order[b].idx].at)
	})
	for _, t := range order {
		r := &s.recs[t.shard].recs[t.idx]
		switch r.kind {
		case recAnnounce:
			sink.PeerAnnounce(r.at, r.sess, r.prefix, r.attrs)
		case recWithdraw:
			sink.PeerWithdraw(r.at, r.sess, r.prefix)
		case recState:
			sink.PeerState(r.at, r.sess, r.old, r.new)
		}
	}
	s.replayed += uint64(total)
	for _, rs := range s.recs {
		rs.recs = rs.recs[:0]
	}
}

// recKind tags a buffered sink record.
type recKind uint8

const (
	recAnnounce recKind = iota
	recWithdraw
	recState
)

// sinkRecord is one buffered collector record.
type sinkRecord struct {
	at       time.Time
	kind     recKind
	sess     Session
	prefix   netip.Prefix
	attrs    RouteAttrs
	old, new mrt.SessionState
}

// recordSink buffers a shard's collector activity for the cross-shard
// merge. Shards other than 0 mute session-state records: FSM transitions
// are AS-level, fan out to every shard, and must reach the merged stream
// exactly once.
type recordSink struct {
	recs      []sinkRecord
	muteState bool
}

func (rs *recordSink) PeerAnnounce(at time.Time, sess Session, p netip.Prefix, attrs RouteAttrs) {
	rs.recs = append(rs.recs, sinkRecord{at: at, kind: recAnnounce, sess: sess, prefix: p, attrs: attrs})
}

func (rs *recordSink) PeerWithdraw(at time.Time, sess Session, p netip.Prefix) {
	rs.recs = append(rs.recs, sinkRecord{at: at, kind: recWithdraw, sess: sess, prefix: p})
}

func (rs *recordSink) PeerState(at time.Time, sess Session, old, new mrt.SessionState) {
	if rs.muteState {
		return
	}
	rs.recs = append(rs.recs, sinkRecord{at: at, kind: recState, sess: sess, old: old, new: new})
}
