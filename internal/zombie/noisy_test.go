package zombie

import (
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/collector"
)

// noisyScenario: 20 intervals of one IPv6 prefix family member; peer N is
// stuck in most intervals (fresh announce each time, so no duplicates),
// peers Q1/Q2 are clean.
func noisyScenario(t *testing.T) (map[string][]byte, []beacon.Interval) {
	t.Helper()
	f := collector.NewFleet()
	n := sess("rrc21", 16347, "2001:db8:bad::1")
	q1 := sess("rrc21", 200, "2001:db8:feed::1")
	q2 := sess("rrc21", 300, "2001:db8:feed::2")
	var ivs []beacon.Interval
	for i := 0; i < 20; i++ {
		start := t0.Add(time.Duration(i) * 4 * time.Hour)
		wd := start.Add(2 * time.Hour)
		ivs = append(ivs, beacon.Interval{Prefix: pfx, AnnounceAt: start, WithdrawAt: wd, End: start.Add(4 * time.Hour)})
		f.PeerAnnounce(start.Add(time.Second), n, pfx, attrsAt(start, 16347, 8298, 210312))
		f.PeerAnnounce(start.Add(time.Second), q1, pfx, attrsAt(start, 200, 8298, 210312))
		f.PeerAnnounce(start.Add(time.Second), q2, pfx, attrsAt(start, 300, 8298, 210312))
		f.PeerWithdraw(wd.Add(time.Minute), q1, pfx)
		f.PeerWithdraw(wd.Add(time.Minute), q2, pfx)
		// The noisy peer keeps 80% of the routes stuck (drops the
		// withdrawal), deterministically: stuck unless i%5 == 0.
		if i%5 == 0 {
			f.PeerWithdraw(wd.Add(time.Minute), n, pfx)
		}
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return f.UpdatesData(), ivs
}

func TestScorePeersAndFlagNoisy(t *testing.T) {
	updates, ivs := noisyScenario(t)
	rep, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	scores := ScorePeers(rep, false)
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	var noisyScore, cleanScore PeerScore
	for _, s := range scores {
		if s.Peer.AS == 16347 {
			noisyScore = s
		}
		if s.Peer.AS == 200 {
			cleanScore = s
		}
	}
	if noisyScore.Prob6 < 0.7 || noisyScore.Prob6 > 0.9 {
		t.Errorf("noisy peer prob = %v, want ~0.8", noisyScore.Prob6)
	}
	if cleanScore.Prob6 != 0 {
		t.Errorf("clean peer prob = %v", cleanScore.Prob6)
	}
	flagged := FlagNoisyPeers(scores, NoisyConfig{})
	if len(flagged) != 1 || flagged[0].AS != 16347 {
		t.Fatalf("flagged = %+v", flagged)
	}
	byAS, byAddr := ExcludeSets(flagged)
	if !byAS[16347] || !byAddr[netip.MustParseAddr("2001:db8:bad::1")] {
		t.Error("exclude sets incomplete")
	}
	// Excluding the noisy peer must never increase outbreak counts.
	all := rep.Filter(FilterOptions{})
	without := rep.Filter(FilterOptions{ExcludePeerAS: byAS})
	if len(without) > len(all) {
		t.Error("exclusion increased outbreaks")
	}
	if len(without) != 0 {
		t.Errorf("outbreaks without the only noisy peer = %d, want 0", len(without))
	}
}

func TestLegacyDetectorDoubleCountsAndMisses(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	ivs := twoIntervals()
	h, err := BuildHistory(updates, NewTrackSet([]netip.Prefix{pfx}))
	if err != nil {
		t.Fatal(err)
	}
	legacy := &LegacyDetector{}
	rep := legacy.detect(h, ivs, 1)
	// Legacy counts: interval 1 -> B and C (ignores the session down!);
	// interval 2 -> B and C again (no dedup).
	if len(rep.Outbreaks) != 2 {
		t.Fatalf("legacy outbreaks = %d", len(rep.Outbreaks))
	}
	if got := CountRoutes(rep.Outbreaks); got != 4 {
		t.Errorf("legacy routes = %d, want 4 (B+C twice)", got)
	}
	for _, ob := range rep.Outbreaks {
		for _, r := range ob.Routes {
			if r.Duplicate {
				t.Error("legacy flagged a duplicate; it cannot")
			}
		}
	}
	// With poor availability the legacy detector loses checks.
	flaky := &LegacyDetector{Seed: 7}
	frep := flaky.detect(h, ivs, 0.25)
	if CountRoutes(frep.Outbreaks) >= 4 {
		t.Errorf("flaky legacy found %d routes, expected misses", CountRoutes(frep.Outbreaks))
	}
}

func TestLegacyStateDelayHidesLateWithdrawals(t *testing.T) {
	// A withdrawal arriving just inside the looking-glass lag window is
	// invisible to the legacy detector (false positive) but visible to
	// the revised one.
	f := collector.NewFleet()
	s := sess("rrc25", 200, "2001:db8:feed::1")
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	check := iv.WithdrawAt.Add(DefaultThreshold)
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 200, 8298, 210312))
	// Withdraw 1 minute before the check — within the 3-minute LG lag.
	f.PeerWithdraw(check.Add(-time.Minute), s, pfx)
	h, err := BuildHistory(f.UpdatesData(), NewTrackSet([]netip.Prefix{pfx}))
	if err != nil {
		t.Fatal(err)
	}
	legacy := (&LegacyDetector{}).detect(h, []beacon.Interval{iv}, 1)
	if CountRoutes(legacy.Outbreaks) != 1 {
		t.Errorf("legacy routes = %d, want 1 false positive", CountRoutes(legacy.Outbreaks))
	}
	revised := (&Detector{}).DetectFromHistory(h, []beacon.Interval{iv})
	if CountRoutes(revised.Outbreaks) != 0 {
		t.Errorf("revised routes = %d, want 0", CountRoutes(revised.Outbreaks))
	}
}
