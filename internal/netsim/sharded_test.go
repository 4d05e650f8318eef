package netsim

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/rpki"
)

// engine is the scenario surface shared by Simulator and Sharded, so one
// scenario can drive both for the differential tests.
type engine interface {
	Faults() *FaultSet
	SetSink(Sink)
	SetROVPolicy(bgp.ASN, rpki.ROVPolicy)
	AddCollectorSession(Session) error
	ScheduleAnnounce(time.Time, bgp.ASN, netip.Prefix, *bgp.Aggregator) error
	ScheduleWithdraw(time.Time, bgp.ASN, netip.Prefix) error
	ScheduleSessionReset(time.Time, bgp.ASN, bgp.ASN) error
	ScheduleCollectorSessionReset(time.Time, Session) error
	ScheduleClearRoutes(time.Time, bgp.ASN, PrefixMatcher) error
	ScheduleROARevalidation(time.Time)
	EstablishCollectorSessions(time.Time)
	RunAll() int
	Run(time.Time) int
}

// The Sharded methods below are the part of the engine interface, and
// the route probes, that no shipped scenario drives through Sharded: the
// differential tests run every kind of scenario step on both engines.

// Faults exposes the shared fault set for scenario construction.
func (s *Sharded) Faults() *FaultSet { return s.shards[0].faults }

// SetROVPolicy configures origin validation on every shard.
func (s *Sharded) SetROVPolicy(asn bgp.ASN, p rpki.ROVPolicy) {
	for _, sim := range s.shards {
		sim.SetROVPolicy(asn, p)
	}
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

// BestRoute reports the best route for p as seen by asn (on p's shard).
func (s *Sharded) BestRoute(asn bgp.ASN, p netip.Prefix) (bgp.ASPath, bool) {
	return s.shardOf(p).BestRoute(asn, p)
}

// HasRoute reports whether asn currently has a route for p.
func (s *Sharded) HasRoute(asn bgp.ASN, p netip.Prefix) bool {
	return s.shardOf(p).HasRoute(asn, p)
}

// Run advances every shard to `until`, then merges and replays the
// shards' collector records into the sink. Returns the total events
// processed.
func (s *Sharded) Run(until time.Time) int {
	n := s.runShards(func(sim *Simulator) int { return sim.Run(until) })
	s.flush()
	return n
}

var shardedPrefixes = []netip.Prefix{
	netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
	netip.MustParsePrefix("2a0d:3dc1:1201::/48"),
	netip.MustParsePrefix("2001:db8:77::/48"),
	netip.MustParsePrefix("84.205.64.0/24"),
	netip.MustParsePrefix("84.205.65.0/24"),
	netip.MustParsePrefix("93.175.149.0/24"),
}

func shardedTestSessions() []Session {
	return []Session{
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("2001:db8::200:1"), AFI: bgp.AFIIPv6},
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("192.0.2.200"), AFI: bgp.AFIIPv4},
		{Collector: "rrc01", PeerAS: 300, PeerIP: netip.MustParseAddr("192.0.2.130")},
	}
}

// runShardedScenario drives a fault-rich scenario covering every
// scheduling entry point, recording the full collector stream.
func runShardedScenario(t *testing.T, e engine, cfgROA *rpki.Registry) []sinkRecord {
	t.Helper()
	rec := &recordSink{}
	e.SetSink(rec)
	for _, sess := range shardedTestSessions() {
		if err := e.AddCollectorSession(sess); err != nil {
			t.Fatal(err)
		}
	}
	e.EstablishCollectorSessions(simStart)
	for i, p := range shardedPrefixes {
		if err := e.ScheduleAnnounce(simStart.Add(time.Duration(i)*time.Minute), originAS, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	f := e.Faults()
	f.WedgeLink(1, 11, 0, simStart.Add(14*time.Minute), simStart.Add(45*time.Minute), MatchWithin(shardedPrefixes[0]))
	f.DropCollectorWithdrawals(200, 0.5, nil)
	f.DropWithdrawals(2, 12, 0.7, nil)
	f.StickRIB(11, MatchWithin(shardedPrefixes[3]))
	for i, p := range shardedPrefixes {
		if i%2 == 0 {
			if err := e.ScheduleWithdraw(simStart.Add(15*time.Minute+time.Duration(i)*time.Second), originAS, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.ScheduleSessionReset(simStart.Add(40*time.Minute), 1, 11); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleCollectorSessionReset(simStart.Add(50*time.Minute), shardedTestSessions()[0]); err != nil {
		t.Fatal(err)
	}
	if cfgROA != nil {
		e.ScheduleROARevalidation(simStart.Add(55 * time.Minute))
	}
	if err := e.ScheduleClearRoutes(simStart.Add(70*time.Minute), 12, nil); err != nil {
		t.Fatal(err)
	}
	// Run in two windows (exercising the flush-at-boundary path), then
	// drain.
	e.Run(simStart.Add(30 * time.Minute))
	e.RunAll()
	return rec.recs
}

func shardedTestConfig(withROA bool) (Config, *rpki.Registry) {
	cfg := Config{Seed: 42}
	var reg *rpki.Registry
	if withROA {
		reg = &rpki.Registry{}
		reg.Add(simStart.Add(-time.Hour), rpki.ROA{Prefix: shardedPrefixes[2], MaxLength: 48, Origin: originAS})
		reg.Remove(simStart.Add(20*time.Minute), rpki.ROA{Prefix: shardedPrefixes[2], MaxLength: 48, Origin: originAS})
		cfg.ROA = reg
	}
	return cfg, reg
}

// TestShardedOneShardMatchesMonolithic: with one shard the sharded engine
// must reproduce the monolithic simulator's collector stream byte for
// byte — the buffer-and-replay layer is a pass-through.
func TestShardedOneShardMatchesMonolithic(t *testing.T) {
	cfg, reg := shardedTestConfig(true)
	mono := runShardedScenario(t, New(testGraph(t), cfg), reg)

	cfg2, reg2 := shardedTestConfig(true)
	sh := NewSharded(testGraph(t), cfg2, 1)
	got := runShardedScenario(t, sh, reg2)

	if !reflect.DeepEqual(mono, got) {
		t.Fatalf("sharded(1) stream diverges from monolithic: %d vs %d records", len(mono), len(got))
	}
}

// TestShardedParallelMatchesSequential: the merged stream must be
// bit-identical whether the shards run on goroutines or one after
// another, across shard counts.
func TestShardedParallelMatchesSequential(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		cfg, reg := shardedTestConfig(true)
		seqSim := NewSharded(testGraph(t), cfg, shards)
		seq := runShardedScenario(t, seqSim, reg)

		cfg2, reg2 := shardedTestConfig(true)
		parSim := NewSharded(testGraph(t), cfg2, shards)
		parSim.Parallel = true
		par := runShardedScenario(t, parSim, reg2)

		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("shards=%d: parallel stream diverges from sequential (%d vs %d records)", shards, len(seq), len(par))
		}
		if ss, ps := seqSim.Stats(), parSim.Stats(); ss != ps {
			t.Fatalf("shards=%d: stats diverge: %+v vs %+v", shards, ss, ps)
		}
	}
}

// TestShardedRunIsReproducible: two runs of the same seed and shard count
// produce identical streams — record-level determinism.
func TestShardedRunIsReproducible(t *testing.T) {
	run := func() []sinkRecord {
		cfg, reg := shardedTestConfig(true)
		sh := NewSharded(testGraph(t), cfg, 3)
		sh.Parallel = true
		return runShardedScenario(t, sh, reg)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverge: %d vs %d records", len(a), len(b))
	}
}

// TestShardedStateQueries: read accessors route to the owning shard.
func TestShardedStateQueries(t *testing.T) {
	sh := NewSharded(testGraph(t), Config{Seed: 1}, 4)
	p := shardedPrefixes[0]
	if err := sh.ScheduleAnnounce(simStart, originAS, p, nil); err != nil {
		t.Fatal(err)
	}
	sh.RunAll()
	if !sh.HasRoute(300, p) {
		t.Error("300 has no route after announce")
	}
	if got := sh.RouteCount(p); got != 8 {
		t.Errorf("RouteCount = %d, want 8", got)
	}
	path, ok := sh.BestRoute(200, p)
	if !ok || path.Length() == 0 {
		t.Errorf("BestRoute(200) = %v, %v", path, ok)
	}
	if sh.HasRoute(200, netip.MustParsePrefix("10.99.0.0/16")) {
		t.Error("route for never-announced prefix")
	}
}

// TestMinHeapPopsInOrder: the index-addressed heap must pop the exact
// ascending (at, seq) order container/heap produced — after a run of
// pushes, and with pushes and pops interleaved over few distinct instants,
// so that most pops break a tie on seq.
func TestMinHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var h minHeap[event]
	var want []event // what h holds, in pop order
	seq := uint64(0)
	push := func(instants int) {
		seq++
		ev := event{atNanos: simStart.Add(time.Duration(rng.IntN(instants)) * time.Second).UnixNano(), seq: seq, msg: uint32(seq)}
		h.push(ev)
		i := sort.Search(len(want), func(i int) bool { return ev.before(want[i]) })
		want = slices.Insert(want, i, ev)
	}
	pop := func(op int) {
		t.Helper()
		if h.len() != len(want) {
			t.Fatalf("op %d: len = %d, want %d", op, h.len(), len(want))
		}
		w := want[0]
		want = want[1:]
		if pk := h.peek(); pk != w {
			t.Fatalf("op %d: peek = %+v, want %+v", op, pk, w)
		}
		if got := h.pop(); got != w {
			t.Fatalf("op %d: pop = %+v, want %+v", op, got, w)
		}
	}
	for i := 0; i < 2000; i++ {
		push(500)
	}
	for i := 0; len(want) > 0; i++ {
		pop(i)
	}
	for i := 0; i < 20000; i++ {
		if len(want) == 0 || rng.IntN(5) < 3 {
			push(8)
		} else {
			pop(i)
		}
	}
	for i := 0; len(want) > 0; i++ {
		pop(i)
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}

// slabLive returns how many handles of s are in use.
func slabLive[T any](s *slab[T]) int { return int(max(s.next, 1)) - 1 - len(s.free) }

// checkSlabs fails unless every message slot of s is free and the live
// route slots are exactly the distinct handles its RIBs hold.
func checkSlabs(t *testing.T, name string, s *Simulator) {
	t.Helper()
	if n := slabLive(&s.msgs) + slabLive(&s.fns); n != 0 {
		t.Errorf("%s: %d message and op slots still in use after RunAll", name, n)
	}
	held := map[uint32]bool{}
	hold := func(h uint32) {
		if h == 0 {
			return
		}
		if held[h] {
			t.Errorf("%s: route handle %d held twice", name, h)
		}
		held[h] = true
	}
	for _, r := range s.routers {
		for _, e := range r.rib {
			hold(e.local)
			for _, h := range e.in {
				hold(h)
			}
		}
	}
	if n := slabLive(&s.routes); n != len(held) {
		t.Errorf("%s: %d route slots in use, RIBs hold %d", name, n, len(held))
	}
}

// TestSlabsDrainAfterRunAll: after RunAll no message slot is in use and no
// route slot outlives the RIB entry naming it — on the fault-rich
// scenario, where zombies keep some routes, and on a clean one, where
// every route is withdrawn and the whole route slab must be free.
func TestSlabsDrainAfterRunAll(t *testing.T) {
	cfg, reg := shardedTestConfig(true)
	sh := NewSharded(testGraph(t), cfg, 3)
	runShardedScenario(t, sh, reg)
	peak := 0
	for i, sim := range sh.shards {
		checkSlabs(t, fmt.Sprintf("fault-rich shard %d", i), sim)
		peak = max(peak, sim.Stats().QueuePeak)
	}
	if st := sh.Stats(); st.QueuePeak != peak || peak == 0 {
		t.Errorf("Sharded QueuePeak = %d, want the shards' maximum %d > 0", st.QueuePeak, peak)
	}

	s := newTestSim(t, Config{})
	s.AddCollectorSession(collectorSession())
	for i, p := range shardedPrefixes {
		s.ScheduleAnnounce(simStart.Add(time.Duration(i)*time.Second), originAS, p, nil)
		s.ScheduleWithdraw(simStart.Add(time.Hour), originAS, p)
	}
	s.ScheduleSessionReset(simStart.Add(30*time.Minute), 1, 11)
	s.ScheduleClearRoutes(simStart.Add(40*time.Minute), 12, nil)
	if got := s.Stats().QueuePeak; got != 2*len(shardedPrefixes)+2 {
		t.Errorf("QueuePeak before the run = %d, want %d scheduled events", got, 2*len(shardedPrefixes)+2)
	}
	s.RunAll()
	checkSlabs(t, "clean", s)
	if n := slabLive(&s.routes); n != 0 {
		t.Errorf("clean run: %d route slots in use after every prefix was withdrawn", n)
	}
	if st := s.Stats(); st.QueuePeak < 2*len(shardedPrefixes)+2 || uint64(st.QueuePeak) > st.Events {
		t.Errorf("QueuePeak = %d, want at least the scheduled ops and at most Events %d", st.QueuePeak, st.Events)
	}
}
