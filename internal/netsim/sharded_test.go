package netsim

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
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
// ascending (at, seq) order container/heap produced.
func TestMinHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var h minHeap[event]
	var want []event
	for i := 0; i < 2000; i++ {
		ev := event{atNanos: simStart.Add(time.Duration(rng.IntN(500)) * time.Second).UnixNano(), seq: uint64(i)}
		h.push(ev)
		want = append(want, ev)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		if h.len() != len(want)-i {
			t.Fatalf("len = %d, want %d", h.len(), len(want)-i)
		}
		if pk := h.peek(); pk.atNanos != w.atNanos || pk.seq != w.seq {
			t.Fatalf("peek %d = (%v, %d), want (%v, %d)", i, pk.atNanos, pk.seq, w.atNanos, w.seq)
		}
		got := h.pop()
		if got.atNanos != w.atNanos || got.seq != w.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, got.atNanos, got.seq, w.atNanos, w.seq)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
}
