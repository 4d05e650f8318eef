package zombie

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
	"zombiescope/internal/netsim"
)

var (
	t0   = time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	pfx  = netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	pfx4 = netip.MustParsePrefix("93.175.146.0/24")
)

func sess(name string, as bgp.ASN, ip string) netsim.Session {
	addr := netip.MustParseAddr(ip)
	afi := bgp.AFIIPv6
	if addr.Is4() {
		afi = bgp.AFIIPv4
	}
	return netsim.Session{Collector: name, PeerAS: as, PeerIP: addr, AFI: afi}
}

func peerOf(s netsim.Session) PeerID {
	return PeerID{Collector: s.Collector, AS: s.PeerAS, Addr: s.PeerIP}
}

func agg(at time.Time) *bgp.Aggregator {
	return &bgp.Aggregator{ASN: 210312, Addr: beacon.AggregatorClock(at)}
}

func attrsAt(at time.Time, path ...bgp.ASN) netsim.RouteAttrs {
	return netsim.RouteAttrs{Path: bgp.NewASPath(path...), Aggregator: agg(at)}
}

// twoIntervals builds two consecutive 24h intervals for pfx.
func twoIntervals() []beacon.Interval {
	mk := func(start time.Time) beacon.Interval {
		return beacon.Interval{
			Prefix:     pfx,
			AnnounceAt: start,
			WithdrawAt: start.Add(15 * time.Minute),
			End:        start.Add(24 * time.Hour),
		}
	}
	return []beacon.Interval{mk(t0), mk(t0.Add(24 * time.Hour))}
}

// buildScenario produces archives with:
//   - peerA: clean (announce + withdraw each interval)
//   - peerB: stuck after interval 1's withdrawal, silent in interval 2
//   - peerC: stuck but its session drops before the check instant
func buildScenario(t *testing.T) (map[string][]byte, netsim.Session, netsim.Session, netsim.Session) {
	t.Helper()
	f := collector.NewFleet()
	a := sess("rrc25", 200, "2001:db8:feed::1")
	b := sess("rrc25", 300, "2001:db8:feed::2")
	c := sess("rrc25", 400, "2001:db8:feed::3")

	t1 := t0.Add(24 * time.Hour)
	for _, s := range []netsim.Session{a, b, c} {
		f.PeerState(t0.Add(-time.Hour), s, mrt.StateActive, mrt.StateEstablished)
	}
	// Interval 1: everyone announces.
	f.PeerAnnounce(t0.Add(2*time.Second), a, pfx, attrsAt(t0, 200, 25091, 8298, 210312))
	f.PeerAnnounce(t0.Add(3*time.Second), b, pfx, attrsAt(t0, 300, 4637, 1299, 25091, 8298, 210312))
	f.PeerAnnounce(t0.Add(3*time.Second), c, pfx, attrsAt(t0, 400, 25091, 8298, 210312))
	// Only A withdraws.
	f.PeerWithdraw(t0.Add(16*time.Minute), a, pfx)
	// C's session dies before the 90-minute check.
	f.PeerState(t0.Add(30*time.Minute), c, mrt.StateEstablished, mrt.StateIdle)
	// Interval 2: A announces and withdraws again; B and C stay silent.
	f.PeerAnnounce(t1.Add(2*time.Second), a, pfx, attrsAt(t1, 200, 25091, 8298, 210312))
	f.PeerWithdraw(t1.Add(16*time.Minute), a, pfx)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return f.UpdatesData(), a, b, c
}

func TestDetectBasicZombie(t *testing.T) {
	updates, a, b, c := buildScenario(t)
	d := &Detector{}
	rep, err := d.Detect(updates, twoIntervals())
	if err != nil {
		t.Fatal(err)
	}
	if rep.VisiblePrefixes != 2 {
		t.Errorf("VisiblePrefixes = %d, want 2", rep.VisiblePrefixes)
	}
	if len(rep.Outbreaks) != 2 {
		t.Fatalf("outbreaks (with duplicates) = %d, want 2", len(rep.Outbreaks))
	}
	// Interval 1: only B is a zombie (A withdrew, C's session died).
	ob1 := rep.Outbreaks[0]
	if len(ob1.Routes) != 1 {
		t.Fatalf("interval 1 routes = %d, want 1", len(ob1.Routes))
	}
	r := ob1.Routes[0]
	if r.Peer != peerOf(b) {
		t.Errorf("zombie peer = %+v, want B", r.Peer)
	}
	if r.Duplicate {
		t.Error("fresh zombie flagged duplicate")
	}
	if got := r.Path.String(); got != "300 4637 1299 25091 8298 210312" {
		t.Errorf("zombie path %q", got)
	}
	_ = a
	_ = c
	// Interval 2: B's stale route is detected again but flagged duplicate
	// via the Aggregator clock.
	ob2 := rep.Outbreaks[1]
	if len(ob2.Routes) != 1 || !ob2.Routes[0].Duplicate {
		t.Fatalf("interval 2: %+v", ob2.Routes)
	}
	// The Aggregator clock decodes interval 1's announce time.
	if !ob2.Routes[0].AnnouncedAt.Equal(t0) {
		t.Errorf("announcedAt = %v, want %v", ob2.Routes[0].AnnouncedAt, t0)
	}
	// Filtering without duplicates leaves exactly one outbreak.
	clean := rep.Filter(FilterOptions{})
	if len(clean) != 1 {
		t.Errorf("deduped outbreaks = %d, want 1", len(clean))
	}
	withDup := rep.Filter(FilterOptions{IncludeDuplicates: true})
	if len(withDup) != 2 {
		t.Errorf("double-counted outbreaks = %d, want 2", len(withDup))
	}
}

func TestDedupNeverIncreasesCounts(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	rep, err := (&Detector{}).Detect(updates, twoIntervals())
	if err != nil {
		t.Fatal(err)
	}
	with := rep.Filter(FilterOptions{IncludeDuplicates: true})
	without := rep.Filter(FilterOptions{})
	if len(without) > len(with) {
		t.Error("dedup increased outbreak count")
	}
	if CountRoutes(without) > CountRoutes(with) {
		t.Error("dedup increased route count")
	}
}

func TestSessionDownPreventsZombie(t *testing.T) {
	updates, _, _, c := buildScenario(t)
	rep, err := (&Detector{}).Detect(updates, twoIntervals())
	if err != nil {
		t.Fatal(err)
	}
	for _, ob := range rep.Outbreaks {
		for _, r := range ob.Routes {
			if r.Peer == peerOf(c) {
				t.Error("down session produced a zombie")
			}
		}
	}
}

func TestExcludePeerFilter(t *testing.T) {
	updates, _, b, _ := buildScenario(t)
	rep, err := (&Detector{}).Detect(updates, twoIntervals())
	if err != nil {
		t.Fatal(err)
	}
	obs := rep.Filter(FilterOptions{ExcludePeerAS: map[bgp.ASN]bool{b.PeerAS: true}})
	if len(obs) != 0 {
		t.Errorf("outbreaks after excluding the only zombie peer = %d", len(obs))
	}
}

// TestFamilyFilter splits a v4-only report by family, as the tables do.
func TestFamilyFilter(t *testing.T) {
	f := collector.NewFleet()
	s4 := sess("rrc21", 16347, "192.0.2.77")
	f.PeerAnnounce(t0.Add(time.Second), s4, pfx4, attrsAt(t0, 16347, 12654))
	iv := beacon.Interval{Prefix: pfx4, AnnounceAt: t0, WithdrawAt: t0.Add(2 * time.Hour), End: t0.Add(4 * time.Hour)}
	rep, err := (&Detector{}).Detect(f.UpdatesData(), []beacon.Interval{iv})
	if err != nil {
		t.Fatal(err)
	}
	if v4, v6 := CountByFamily(rep.Filter(FilterOptions{})); v4 != 1 || v6 != 0 {
		t.Errorf("outbreaks by family = %d v4, %d v6, want 1, 0", v4, v6)
	}
}

func TestThresholdSweepMonotoneWithoutResurrection(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	ivs := twoIntervals()
	prefixes := []netip.Prefix{pfx}
	h, err := BuildHistory(updates, NewTrackSet(prefixes))
	if err != nil {
		t.Fatal(err)
	}
	var ths []time.Duration
	for m := 90; m <= 180; m += 10 {
		ths = append(ths, time.Duration(m)*time.Minute)
	}
	pts := Sweep(h, ivs, ths, FilterOptions{})
	for i := 1; i < len(pts); i++ {
		if pts[i].Outbreaks > pts[i-1].Outbreaks {
			t.Errorf("outbreaks increased from %d to %d at %v without resurrection",
				pts[i-1].Outbreaks, pts[i].Outbreaks, pts[i].Threshold)
		}
	}
	if pts[0].Fraction <= 0 || pts[0].Fraction > 1 {
		t.Errorf("fraction %v out of range", pts[0].Fraction)
	}
}

func TestRecordPaths(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	d := &Detector{RecordPaths: true}
	rep, err := d.Detect(updates, twoIntervals())
	if err != nil {
		t.Fatal(err)
	}
	var normal, zombie int
	for _, po := range rep.PathObs {
		if po.Zombie {
			zombie++
			if po.ZombieLen == 0 {
				t.Error("zombie observation without path length")
			}
		} else {
			normal++
			if po.NormalLen == 0 {
				t.Error("normal observation without path length")
			}
		}
	}
	if normal == 0 || zombie == 0 {
		t.Errorf("observations normal=%d zombie=%d", normal, zombie)
	}
}

// TestReportIndependentOfTrackSet builds the scenario's history tracked
// and track-all, with one more collector peer that announces only a
// non-beacon prefix and writes no STATE record: the track-all build holds
// that peer, the tracked one does not, and every report must still agree.
func TestReportIndependentOfTrackSet(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	f := collector.NewFleet()
	other := sess("rrc01", 500, "2001:db8:feed::5")
	f.PeerAnnounce(t0.Add(5*time.Second), other, netip.MustParsePrefix("2001:db8:99::/48"), attrsAt(t0, 500, 64500))
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	updates["rrc01"] = f.UpdatesData()["rrc01"]
	ivs := twoIntervals()
	for _, par := range []int{0, 4} {
		tracked, err := BuildHistoryParallel(updates, NewTrackSet([]netip.Prefix{pfx}), par)
		if err != nil {
			t.Fatal(err)
		}
		all, err := BuildHistoryParallel(updates, nil, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(all.peers) != len(tracked.peers)+1 {
			t.Fatalf("parallelism %d: track-all history has %d peers, tracked %d; want one more", par, len(all.peers), len(tracked.peers))
		}
		for _, d := range []*Detector{{Parallelism: par}, {Parallelism: par, RecordPaths: true, IgnoreSessionState: true}} {
			if got, want := d.DetectFromHistory(all, ivs), d.DetectFromHistory(tracked, ivs); !reflect.DeepEqual(got, want) {
				t.Errorf("parallelism %d, %+v: track-all report differs from tracked\ngot peers  %v\nwant peers %v", par, *d, got.Peers, want.Peers)
			}
		}
		legacy := &LegacyDetector{Seed: 7}
		if got, want := legacy.Detect(all, ivs), legacy.Detect(tracked, ivs); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: legacy track-all report differs from tracked", par)
		}
	}
}

func TestConcurrentCounts(t *testing.T) {
	iv1 := beacon.Interval{Prefix: pfx, AnnounceAt: t0}
	iv2 := beacon.Interval{Prefix: pfx4, AnnounceAt: t0}
	iv3 := beacon.Interval{Prefix: pfx, AnnounceAt: t0.Add(4 * time.Hour)}
	obs := []Outbreak{
		{Prefix: pfx, Interval: iv1},
		{Prefix: pfx4, Interval: iv2},
		{Prefix: pfx, Interval: iv3},
	}
	counts := ConcurrentCounts(obs)
	if len(counts) != 2 || counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestEmergenceRates(t *testing.T) {
	updates, a, b, _ := buildScenario(t)
	rep, err := (&Detector{}).Detect(updates, twoIntervals())
	if err != nil {
		t.Fatal(err)
	}
	rates := EmergenceRates(rep, FilterOptions{IncludeDuplicates: true})
	byAS := make(map[bgp.ASN]EmergenceRate)
	for _, r := range rates {
		byAS[r.PeerAS] = r
	}
	// B was stuck in both intervals: rate 1.0 with duplicates.
	if got := byAS[b.PeerAS].Rate; got != 1.0 {
		t.Errorf("B rate = %v, want 1.0", got)
	}
	// A never stuck: rate 0 but still listed.
	if got, ok := byAS[a.PeerAS]; !ok || got.Rate != 0 {
		t.Errorf("A rate = %+v", got)
	}
	// Without duplicates B drops to 0.5.
	rates = EmergenceRates(rep, FilterOptions{})
	for _, r := range rates {
		if r.PeerAS == b.PeerAS && r.Rate != 0.5 {
			t.Errorf("B deduped rate = %v, want 0.5", r.Rate)
		}
	}
}

func TestStateAtOrderingWithinSameSecond(t *testing.T) {
	// An announce and a withdraw in the same second must apply in archive
	// order.
	f := collector.NewFleet()
	s := sess("rrc25", 200, "2001:db8:feed::1")
	f.PeerAnnounce(t0, s, pfx, attrsAt(t0, 200, 210312))
	f.PeerWithdraw(t0, s, pfx)
	h, err := BuildHistory(f.UpdatesData(), NewTrackSet([]netip.Prefix{pfx}))
	if err != nil {
		t.Fatal(err)
	}
	st := h.StateAt(peerOf(s), pfx, t0.Add(time.Second))
	if st.Present {
		t.Error("withdraw after announce in same second ignored")
	}
}

func TestSessionUpDoesNotRestoreRoutes(t *testing.T) {
	f := collector.NewFleet()
	s := sess("rrc25", 200, "2001:db8:feed::1")
	f.PeerAnnounce(t0, s, pfx, attrsAt(t0, 200, 210312))
	f.PeerState(t0.Add(time.Minute), s, mrt.StateEstablished, mrt.StateIdle)
	f.PeerState(t0.Add(2*time.Minute), s, mrt.StateActive, mrt.StateEstablished)
	h, err := BuildHistory(f.UpdatesData(), NewTrackSet([]netip.Prefix{pfx}))
	if err != nil {
		t.Fatal(err)
	}
	st := h.StateAt(peerOf(s), pfx, t0.Add(time.Hour))
	if st.Present {
		t.Error("session up restored routes without a new announcement")
	}
}
