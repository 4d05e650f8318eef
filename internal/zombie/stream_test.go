package zombie

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
	"zombiescope/internal/netsim"
)

// feedStream replays an archive into a StreamDetector, advancing the
// clock with record timestamps, and returns the emitted events.
func feedStream(t *testing.T, updates map[string][]byte, intervals []beacon.Interval, threshold time.Duration) []ZombieEvent {
	t.Helper()
	var events []ZombieEvent
	sd := NewStreamDetector(intervals, threshold, func(ev ZombieEvent) {
		events = append(events, ev)
	})
	for name, data := range updates {
		rd := mrt.NewReader(bytes.NewReader(data))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			sd.Advance(rec.RecordTime())
			sd.Observe(name, rec)
		}
	}
	// Flush remaining checks.
	sd.Advance(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	if sd.PendingChecks() != 0 {
		t.Fatalf("%d checks still pending after flush", sd.PendingChecks())
	}
	return events
}

// assertStreamMatchesBatch replays updates (one collector, time-ordered)
// through a StreamDetector and requires its alerts to be the batch
// report's routes: the same (peer, prefix, interval) set, and each alert's
// Path, AnnouncedAt and Duplicate equal to the Route's.
func assertStreamMatchesBatch(t *testing.T, updates map[string][]byte, ivs []beacon.Interval) []ZombieEvent {
	t.Helper()
	batch, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	events := feedStream(t, updates, ivs, DefaultThreshold)
	type key struct {
		peer     PeerID
		prefix   netip.Prefix
		announce int64
	}
	routes := make(map[key]Route)
	for _, ob := range batch.Outbreaks {
		for _, r := range ob.Routes {
			routes[key{r.Peer, r.Prefix, r.Interval.AnnounceAt.Unix()}] = r
		}
	}
	if len(events) != len(routes) {
		t.Fatalf("stream emitted %d events, batch found %d routes", len(events), len(routes))
	}
	for _, ev := range events {
		r, ok := routes[key{ev.Peer, ev.Prefix, ev.Interval.AnnounceAt.Unix()}]
		if !ok {
			t.Errorf("stream-only event: %+v", ev)
			continue
		}
		if ev.Interval != r.Interval || !ev.Path.Equal(r.Path) || !ev.AnnouncedAt.Equal(r.AnnouncedAt) || ev.Duplicate != r.Duplicate {
			t.Errorf("stream alert diverges from batch route:\n stream %+v\n batch  %+v", ev, r)
		}
	}
	return events
}

func TestStreamDetectorMatchesBatch(t *testing.T) {
	updates, _, b, _ := buildScenario(t)
	events := assertStreamMatchesBatch(t, updates, twoIntervals())
	if len(events) != 2 {
		t.Fatalf("events = %d, want B stuck in both intervals", len(events))
	}
	for _, ev := range events {
		if ev.Peer != peerOf(b) {
			t.Errorf("unexpected zombie peer %+v", ev.Peer)
		}
	}
}

func TestStreamDetectorEmitsInOrder(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	ivs := twoIntervals()
	events := feedStream(t, updates, ivs, DefaultThreshold)
	for i := 1; i < len(events); i++ {
		if events[i].DetectedAt.Before(events[i-1].DetectedAt) {
			t.Errorf("events out of order: %v before %v", events[i].DetectedAt, events[i-1].DetectedAt)
		}
	}
	// Detection instants are exactly withdrawal + threshold.
	for _, ev := range events {
		if got := ev.DetectedAt.Sub(ev.Interval.WithdrawAt); got != DefaultThreshold {
			t.Errorf("detected %v after withdrawal, want %v", got, DefaultThreshold)
		}
	}
}

// TestStreamDetectorEmissionOrder: the alerts of one fired check must
// reach the callback in the batch report's route order on every run —
// the sequence feeds wire and journal sequence numbers, so a map-order
// shuffle would make two identical replays disagree.
func TestStreamDetectorEmissionOrder(t *testing.T) {
	f := collector.NewFleet()
	// Five stuck peers across two collectors, announced in an order that
	// is neither the canonical peer order nor its reverse.
	for i, s := range []netsim.Session{
		sess("rrc25", 400, "2001:db8:feed::4"),
		sess("rrc01", 300, "2001:db8:feed::9"),
		sess("rrc25", 200, "2001:db8:feed::7"),
		sess("rrc01", 300, "2001:db8:feed::2"),
		sess("rrc25", 200, "2001:db8:feed::1"),
	} {
		f.PeerAnnounce(t0.Add(time.Duration(i+1)*time.Second), s, pfx, attrsAt(t0, s.PeerAS, 8298, 210312))
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	updates := f.UpdatesData()
	ivs := []beacon.Interval{{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}}

	batch, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Outbreaks) != 1 || len(batch.Outbreaks[0].Routes) != 5 {
		t.Fatalf("batch report = %+v, want one outbreak of 5 routes", batch.Outbreaks)
	}
	var want []PeerID
	for _, r := range batch.Outbreaks[0].Routes {
		want = append(want, r.Peer)
	}
	for run := 0; run < 20; run++ {
		var got []PeerID
		for _, ev := range feedStream(t, updates, ivs, DefaultThreshold) {
			got = append(got, ev.Peer)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: emission order %v, want batch route order %v", run, got, want)
		}
	}
}

func TestStreamDetectorSessionDown(t *testing.T) {
	// A peer whose session drops before the check must not fire.
	f := collector.NewFleet()
	s := sess("rrc25", 400, "2001:db8:feed::3")
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 400, 25091, 8298, 210312))
	f.PeerState(t0.Add(30*time.Minute), s, mrt.StateEstablished, mrt.StateIdle)
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 0 {
		t.Errorf("down session produced %d events", len(events))
	}
}

func TestStreamDetectorResurrectionFlag(t *testing.T) {
	// Withdraw at the peer, then a late re-announcement of the old route
	// (old Aggregator clock) before the check: flagged Resurrected.
	f := collector.NewFleet()
	s := sess("rrc25", 300, "2001:db8:feed::2")
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 300, 8298, 210312))
	wd := t0.Add(15 * time.Minute)
	f.PeerWithdraw(wd.Add(time.Minute), s, pfx)
	// 70 minutes after withdrawal the stuck route is re-announced by an
	// infected upstream, carrying the ORIGINAL beacon clock.
	f.PeerAnnounce(wd.Add(70*time.Minute), s, pfx, attrsAt(t0, 300, 4637, 1299, 8298, 210312))
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: wd, End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if !events[0].Resurrected {
		t.Error("late re-announcement not flagged as resurrection")
	}
	if events[0].Duplicate {
		t.Error("current-interval resurrection flagged duplicate")
	}
}

func TestStreamDetectorCleanWithdrawalSilent(t *testing.T) {
	f := collector.NewFleet()
	s := sess("rrc25", 200, "2001:db8:feed::1")
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 200, 8298, 210312))
	f.PeerWithdraw(t0.Add(16*time.Minute), s, pfx)
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 0 {
		t.Errorf("clean withdrawal produced %d events", len(events))
	}
}

func TestDetectorIgnoreSessionStateAblation(t *testing.T) {
	// With the ablation on, the session-down peer C becomes a (false)
	// zombie — the count can only grow.
	updates, _, _, c := buildScenario(t)
	ivs := twoIntervals()
	full, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := (&Detector{IgnoreSessionState: true}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	fullRoutes := CountRoutes(full.Filter(FilterOptions{IncludeDuplicates: true}))
	ablRoutes := CountRoutes(ablated.Filter(FilterOptions{IncludeDuplicates: true}))
	if ablRoutes <= fullRoutes {
		t.Errorf("ablation found %d routes, full methodology %d; want strictly more", ablRoutes, fullRoutes)
	}
	// And the extra routes belong to the down-session peer.
	foundC := false
	for _, ob := range ablated.Outbreaks {
		for _, r := range ob.Routes {
			if r.Peer == peerOf(c) {
				foundC = true
			}
		}
	}
	if !foundC {
		t.Error("ablated detection did not surface the down-session peer")
	}
}

// fleetRecords reads every collector archive of f into one slice of
// (collector, record) pairs, collectors in name order.
func fleetRecords(t *testing.T, f *collector.Fleet) (names []string, recs []mrt.Record) {
	t.Helper()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	updates := f.UpdatesData()
	var collectors []string
	for name := range updates {
		collectors = append(collectors, name)
	}
	slices.Sort(collectors)
	for _, name := range collectors {
		rs, err := mrttest.ReadAll(bytes.NewReader(updates[name]))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			names, recs = append(names, name), append(recs, r)
		}
	}
	return names, recs
}

// TestStreamDetectorSessionDownPerCollector: the same AS and address on
// two collectors are two peers, so a session drop on one clears only its
// own pairs.
func TestStreamDetectorSessionDownPerCollector(t *testing.T) {
	f := collector.NewFleet()
	down, up := sess("rrc01", 300, "2001:db8:feed::2"), sess("rrc25", 300, "2001:db8:feed::2")
	for _, s := range []netsim.Session{down, up} {
		f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 300, 8298, 210312))
	}
	f.PeerState(t0.Add(30*time.Minute), down, mrt.StateEstablished, mrt.StateIdle)
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 1 || events[0].Peer != peerOf(up) {
		t.Fatalf("events = %+v, want one alert from %+v", events, peerOf(up))
	}
}

// TestStreamDetectorPeerIDs: a peer gets a dense id only when it first
// announces a tracked prefix; withdrawals and session events of an
// unseen peer create nothing.
func TestStreamDetectorPeerIDs(t *testing.T) {
	f := collector.NewFleet()
	announcer := sess("rrc01", 100, "2001:db8:feed::1")
	withdrawer := sess("rrc01", 200, "2001:db8:feed::2")
	flapper := sess("rrc25", 300, "2001:db8:feed::3")
	f.PeerAnnounce(t0.Add(time.Second), announcer, pfx, attrsAt(t0, 100, 210312))
	f.PeerAnnounce(t0.Add(time.Second), announcer, pfx4, attrsAt(t0, 100, 210312))
	f.PeerWithdraw(t0.Add(2*time.Second), withdrawer, pfx)
	f.PeerState(t0.Add(3*time.Second), flapper, mrt.StateEstablished, mrt.StateIdle)
	f.PeerState(t0.Add(4*time.Second), flapper, mrt.StateIdle, mrt.StateEstablished)
	names, recs := fleetRecords(t, f)
	if len(recs) != 5 {
		t.Fatalf("fleet wrote %d records, want 2 announcements, 1 withdrawal, 2 state changes", len(recs))
	}
	ivs := []beacon.Interval{
		{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)},
		{Prefix: pfx4, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)},
	}
	sd := NewStreamDetector(ivs, DefaultThreshold, nil)
	for i, rec := range recs {
		sd.Observe(names[i], rec)
	}
	if want := []PeerID{peerOf(announcer)}; !reflect.DeepEqual(sd.peers, want) || len(sd.peerIdx) != 1 {
		t.Fatalf("peers = %+v (index %v), want only %+v", sd.peers, sd.peerIdx, want)
	}
	if len(sd.state) != 2 || len(sd.byPeer) != 1 || len(sd.byPrefix) != 2 {
		t.Fatalf("states = %d, peer chains = %d, prefix chains = %d; want 2, 1, 2",
			len(sd.state), len(sd.byPeer), len(sd.byPrefix))
	}
	chained := 0
	for st := sd.byPeer[0]; st != nil; st = st.nextOfPeer {
		chained++
	}
	if chained != 2 {
		t.Fatalf("peer chain holds %d states, want 2", chained)
	}
}

// TestStreamDetectorShuffledArrival: however the stuck peers' records
// interleave, one check's alerts come out in comparePeers order.
func TestStreamDetectorShuffledArrival(t *testing.T) {
	f := collector.NewFleet()
	sessions := []netsim.Session{
		sess("rrc25", 400, "2001:db8:feed::4"),
		sess("rrc01", 300, "2001:db8:feed::9"),
		sess("rrc25", 200, "2001:db8:feed::7"),
		sess("rrc01", 300, "2001:db8:feed::2"),
		sess("rrc00", 500, "2001:db8:feed::5"),
		sess("rrc25", 200, "2001:db8:feed::1"),
	}
	var want []PeerID
	for i, s := range sessions {
		f.PeerAnnounce(t0.Add(time.Duration(i+1)*time.Second), s, pfx, attrsAt(t0, s.PeerAS, 8298, 210312))
		want = append(want, peerOf(s))
	}
	slices.SortFunc(want, comparePeers)
	names, recs := fleetRecords(t, f)
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	rng := rand.New(rand.NewPCG(1, 2))
	for run := 0; run < 20; run++ {
		var got []PeerID
		sd := NewStreamDetector([]beacon.Interval{iv}, DefaultThreshold, func(ev ZombieEvent) { got = append(got, ev.Peer) })
		for _, i := range rng.Perm(len(recs)) {
			sd.Observe(names[i], recs[i])
		}
		sd.Advance(iv.End)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: emission order %v, want %v", run, got, want)
		}
	}
}
