package netsim

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/topology"
)

// TestSharded80kDeterminism runs a zombie scenario twice over an ~80k-AS
// internet-scale topology on the parallel sharded engine and requires the
// two collector streams to be identical: scheduling on goroutines must
// not leak any nondeterminism into the merged output, even at full scale.
func TestSharded80kDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("80k-AS simulation is expensive; skipped with -short")
	}
	g, err := topology.Generate(topology.InternetScaleConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	stubs := g.TierASNs(4)
	if len(stubs) < 50001 {
		t.Fatalf("unexpected stub count %d", len(stubs))
	}
	origin := stubs[0]
	peers := []bgp.ASN{stubs[100], stubs[20000], stubs[50000]}
	start := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	p0 := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	p1 := netip.MustParsePrefix("84.205.64.0/24")

	run := func() ([]sinkRecord, Stats) {
		sh := NewSharded(g, Config{Seed: 9}, 4)
		sh.Parallel = true
		rec := &recordSink{}
		sh.SetSink(rec)
		for i, peer := range peers {
			sess := Session{
				Collector: fmt.Sprintf("rrc%02d", i),
				PeerAS:    peer,
				PeerIP:    netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + i)}),
			}
			if err := sh.AddCollectorSession(sess); err != nil {
				t.Fatal(err)
			}
		}
		sh.EstablishCollectorSessions(start)
		// A sprinkle of background withdrawal loss so some routes stick —
		// the zombie regime the paper measures, here exercised at the
		// Internet's scale.
		sh.Faults().GlobalWithdrawalDrop(0.0005, nil)
		if err := sh.ScheduleAnnounce(start, origin, p0, nil); err != nil {
			t.Fatal(err)
		}
		if err := sh.ScheduleAnnounce(start, origin, p1, nil); err != nil {
			t.Fatal(err)
		}
		if err := sh.ScheduleWithdraw(start.Add(2*time.Hour), origin, p0); err != nil {
			t.Fatal(err)
		}
		sh.RunAll()
		return rec.recs, sh.Stats()
	}

	recsA, statsA := run()
	recsB, statsB := run()
	if len(recsA) == 0 {
		t.Fatal("scenario produced no collector records")
	}
	if statsA != statsB {
		t.Fatalf("stats diverge between identical runs: %+v vs %+v", statsA, statsB)
	}
	if !reflect.DeepEqual(recsA, recsB) {
		t.Fatalf("collector streams diverge between identical runs (%d vs %d records)", len(recsA), len(recsB))
	}
	t.Logf("80k-AS run: %d events, %d messages, %d collector records, at most %d events queued on one shard",
		statsA.Events, statsA.MessagesSent, len(recsA), statsA.QueuePeak)
}
