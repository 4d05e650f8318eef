package netsim

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/topology"
)

// BenchmarkSimBeacon is the sim-beacon workload of the repository
// benchmark without its collector encoder: a fixed ~2k-AS generated
// Internet (12/60/450/1500), sixteen IPv6 collector sessions, and eight
// beacon prefixes announced and withdrawn fifteen minutes later, drained
// into a recordSink. One op is one whole simulation from NewSharded to
// RunAll. BENCH_netsim.json fences its allocs/op and B/op, which depend on
// the simulator's data layout alone.
func BenchmarkSimBeacon(b *testing.B) {
	cfg := topology.DefaultGenerateConfig(2024)
	cfg.Tier1Count, cfg.Tier2Count, cfg.Tier3Count, cfg.StubCount = 12, 60, 450, 1500
	cfg.Tier2PeerProb, cfg.Tier3PeerProb = 0.10, 0.005
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	stubs := g.TierASNs(4)
	origin := stubs[0]
	var sessions []Session
	for i := 0; i < 16; i++ {
		a := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xfe, 0xed, 0, byte(i), 15: 1}
		sessions = append(sessions, Session{
			Collector: fmt.Sprintf("rrc%02d", i%4), PeerAS: stubs[1+i*(len(stubs)-1)/16],
			PeerIP: netip.AddrFrom16(a), AFI: bgp.AFIIPv6,
		})
	}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim := NewSharded(g, Config{Seed: 77}, shards)
				rec := &recordSink{}
				sim.SetSink(rec)
				for _, sess := range sessions {
					if err := sim.AddCollectorSession(sess); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < 8; j++ {
					p := netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, 0x0d, 0x3d, 0xc1, 0x12, byte(j)}), 48)
					if err := sim.ScheduleAnnounce(simStart, origin, p, nil); err != nil {
						b.Fatal(err)
					}
					if err := sim.ScheduleWithdraw(simStart.Add(15*time.Minute), origin, p); err != nil {
						b.Fatal(err)
					}
				}
				sim.EstablishCollectorSessions(simStart.Add(-time.Hour))
				sim.RunAll()
				if len(rec.recs) < 100 {
					b.Fatalf("%d collector records, want at least 100", len(rec.recs))
				}
			}
		})
	}
}
