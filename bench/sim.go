package main

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
)

// The sim-beacon scenario: eight beacon prefixes announced into a ~2k-AS
// generated Internet and withdrawn fifteen minutes later, observed by
// sixteen collector sessions.
const (
	simBeacons  = 8
	simSessions = 16
	// simMinRecords is the floor on collector records per run.
	simMinRecords = 100
)

var simStart = time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)

// simTopologySeed fixes the simulated Internet, as the author scenario's
// named-actor graph is fixed: the run's seed draws the link delays, and
// with them the path exploration, not the map. Per-seed maps made the
// events of one pass swing threefold.
const simTopologySeed = 2024

func simTopology() topology.GenerateConfig {
	cfg := topology.DefaultGenerateConfig(simTopologySeed)
	cfg.Tier1Count, cfg.Tier2Count, cfg.Tier3Count, cfg.StubCount = 12, 60, 450, 1500
	// Peering probabilities scaled down with tier size, keeping the number
	// of lateral links per AS near the default graph's.
	cfg.Tier2PeerProb, cfg.Tier3PeerProb = 0.10, 0.005
	return cfg
}

// simBeacon is pure simulator work: no archive, detection or feed layer
// runs, which makes it the bypass workload for every optimisation outside
// netsim/collector and the exercise workload for queue and shard changes.
type simBeacon struct {
	e      *env
	g      *topology.Graph
	origin bgp.ASN
	peers  []bgp.ASN
	want   string // reference digest of the collectors' update archives
}

func (w *simBeacon) setUp() error {
	start := time.Now()
	g, err := topology.Generate(simTopology())
	if err != nil {
		return err
	}
	w.e.layers.add("topology.generate_ms", millisSince(start))
	stubs := g.TierASNs(4)
	if len(stubs) < simSessions+1 {
		return fmt.Errorf("sim: only %d stubs", len(stubs))
	}
	w.g, w.origin = g, stubs[0]
	// Collector peers spread evenly over the stubs.
	w.peers = w.peers[:0]
	for i := 0; i < simSessions; i++ {
		w.peers = append(w.peers, stubs[1+i*(len(stubs)-1)/simSessions])
	}
	return nil
}

func simPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, 0x0d, 0x3d, 0xc1, 0x12, byte(i)}), 48)
}

// simRun is one simulation's outputs.
type simRun struct {
	stats   netsim.Stats
	updates map[string][]byte
	run     time.Duration // NewSharded through RunAll
	encode  time.Duration // Fleet.UpdatesData
}

// simulate runs the scenario on the given shard count, under spans when
// root is non-nil.
func (w *simBeacon) simulate(shards int, parallel bool, root *span) (*simRun, error) {
	run := &simRun{}
	fleet := collector.NewFleet()
	var sim *netsim.Sharded
	var err error
	run.run, err = root.time("netsim.run", func() error {
		sim = netsim.NewSharded(w.g, netsim.Config{Seed: w.e.seed}, shards)
		sim.Parallel = parallel
		sim.SetSink(fleet)
		for i, asn := range w.peers {
			a := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xfe, 0xed, 0, byte(i), 15: 1}
			if err := sim.AddCollectorSession(netsim.Session{
				Collector: fmt.Sprintf("rrc%02d", i%4), PeerAS: asn, PeerIP: netip.AddrFrom16(a), AFI: bgp.AFIIPv6,
			}); err != nil {
				return err
			}
		}
		for i := 0; i < simBeacons; i++ {
			if err := sim.ScheduleAnnounce(simStart, w.origin, simPrefix(i), nil); err != nil {
				return err
			}
			if err := sim.ScheduleWithdraw(simStart.Add(15*time.Minute), w.origin, simPrefix(i)); err != nil {
				return err
			}
		}
		sim.EstablishCollectorSessions(simStart.Add(-time.Hour))
		sim.RunAll()
		return nil
	})
	if err != nil {
		return nil, err
	}
	run.encode, err = root.time("collector.encode", func() error {
		run.updates = fleet.UpdatesData()
		return fleet.Err()
	})
	if err != nil {
		return nil, err
	}
	run.stats = sim.Stats()
	for i := 0; i < simBeacons; i++ {
		if n := sim.RouteCount(simPrefix(i)); n != 0 {
			return nil, fmt.Errorf("sim: %s still held by %d ASes after the withdrawal", simPrefix(i), n)
		}
	}
	return run, nil
}

func simDigest(updates map[string][]byte) string {
	names := make([]string, 0, len(updates))
	for name := range updates {
		names = append(names, name)
	}
	sort.Strings(names)
	d := newDigester()
	for _, name := range names {
		d.line("collector %s %d", name, len(updates[name]))
		d.h.Write(updates[name])
	}
	return d.sum()
}

// reference runs the same shards one after the other. The shard count
// stays W: the per-link FIFO is kept per shard, so only runs with equal
// shard counts are bit-identical.
func (w *simBeacon) reference() error {
	run, err := w.simulate(w.e.workers, false, nil)
	if err != nil {
		return err
	}
	if run.stats.CollectorRecords < simMinRecords {
		return fmt.Errorf("reference produced %d collector records, want at least %d", run.stats.CollectorRecords, simMinRecords)
	}
	w.want = simDigest(run.updates)
	return nil
}

func (w *simBeacon) pass() (passResult, error) {
	run, err := w.simulate(w.e.workers, true, nil)
	if err != nil {
		return passResult{}, err
	}
	r := passResult{wall: run.run + run.encode, items: int(run.stats.Events), attempted: 1}
	if got := simDigest(run.updates); got != w.want {
		r.failed = 1
		r.note = fmt.Sprintf("update archive digest %s, sequential reference %s", got[:12], w.want[:12])
	}
	return r, nil
}

func (w *simBeacon) measure(d time.Duration) (*measurement, error) { return closedLoop(d, w.pass) }

func (w *simBeacon) staged(log *spanLog, pass int) error {
	t := w.e.layers
	root := log.root("pass", pass)
	run, err := w.simulate(w.e.workers, true, root)
	root.end()
	if err != nil {
		return err
	}
	if got := simDigest(run.updates); got != w.want {
		return fmt.Errorf("staged run digest %s, reference %s", got[:12], w.want[:12])
	}
	t.set("netsim.events", float64(run.stats.Events))
	t.set("netsim.messages", float64(run.stats.MessagesSent))
	t.set("netsim.collector_records", float64(run.stats.CollectorRecords))
	t.set("collector.updates_mb", float64(totalBytes(run.updates))/(1<<20))

	extras := log.root("extras", pass)
	defer extras.end()
	// One shard: the single-thread baseline. Its spans get their own names
	// so the W-shard run's metrics stay unmixed.
	var seq *simRun
	if _, err := extras.time("netsim.seq_run", func() (err error) { seq, err = w.simulate(1, false, nil); return }); err != nil {
		return err
	}
	t.add("netsim.par_speedup", float64(seq.run)/float64(run.run))
	return nil
}
