package zombie

import (
	"fmt"
	"math/rand/v2"
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

// TestStateFold pins State.fold — the one state step — for every event
// kind against a present, a withdrawn and a never-seen prior state, and the
// cursor's (time, order) tie-break between a session down and an
// announcement of the same second.
func TestStateFold(t *testing.T) {
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	oldPath, newPath := bgp.NewASPath(300, 8298, 210312), bgp.NewASPath(300, 1299, 8298, 210312)
	oldAgg, newAgg := agg(t0), agg(t0.Add(4*time.Hour))
	present := State{Present: true, Path: oldPath, Agg: oldAgg, At: at(1), LastEvent: at(1)}
	withdrawn := State{At: at(1), LastEvent: at(2)}
	announce := histEvent{at: at(5), kind: evAnnounce, path: newPath, agg: newAgg}
	announced := State{Present: true, Path: newPath, Agg: newAgg, At: at(5), LastEvent: at(5)}
	for _, tc := range []struct {
		name  string
		prior State
		ev    histEvent
		want  State
	}{
		{"announce over present", present, announce, announced},
		{"announce over withdrawn", withdrawn, announce, announced},
		{"announce over nothing", State{}, announce, announced},
		// At survives a withdrawal; Path and Agg do not.
		{"withdraw present", present, histEvent{at: at(5), kind: evWithdraw}, State{At: at(1), LastEvent: at(5)}},
		{"withdraw withdrawn", withdrawn, histEvent{at: at(5), kind: evWithdraw}, State{At: at(1), LastEvent: at(5)}},
		{"withdraw nothing", State{}, histEvent{at: at(5), kind: evWithdraw}, State{LastEvent: at(5)}},
		{"session down present", present, histEvent{at: at(5), kind: evSessionDown}, State{LastEvent: at(5)}},
		{"session down withdrawn", withdrawn, histEvent{at: at(5), kind: evSessionDown}, State{LastEvent: at(5)}},
		{"session down nothing", State{}, histEvent{at: at(5), kind: evSessionDown}, State{LastEvent: at(5)}},
		{"session up present", present, histEvent{at: at(5), kind: evSessionUp}, present},
		{"session up withdrawn", withdrawn, histEvent{at: at(5), kind: evSessionUp}, withdrawn},
		{"session up nothing", State{}, histEvent{at: at(5), kind: evSessionUp}, State{}},
	} {
		got := tc.prior
		got.fold(&tc.ev)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fold = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		name                string
		annOrder, downOrder int
		wantPresent         bool
	}{
		{"down then announce", 2, 1, true},
		{"announce then down", 1, 2, false},
	} {
		evs := []histEvent{{at: at(5), order: tc.annOrder, kind: evAnnounce, path: newPath, agg: newAgg}}
		sess := []histEvent{{at: at(5), order: tc.downOrder, kind: evSessionDown}}
		b, peer := NewHistoryBuilder(nil), PeerID{Collector: "rrc25", AS: 300}
		b.add(peer, pfx, evs[0])
		b.addSession(peer, sess[0])
		c := b.Seal().cursor(peer, pfx, true)
		if st := c.advance(at(5)); st.Present || !st.LastEvent.IsZero() {
			t.Errorf("%s: events at the query instant folded: %+v", tc.name, st)
		}
		st := c.advance(at(6))
		if st.Present != tc.wantPresent {
			t.Errorf("%s: Present = %v, want %v", tc.name, st.Present, tc.wantPresent)
		}
		if want := refStateAt(evs, sess, at(6)); !reflect.DeepEqual(st, want) {
			t.Errorf("%s: cursor %+v, oracle walk %+v", tc.name, st, want)
		}
	}
}

var foldPrefixes = []netip.Prefix{pfx, netip.MustParsePrefix("2a0d:3dc1:1300::/48")}

// foldScenario writes a seeded random archive of one collector: three
// peers announcing, withdrawing and flapping their sessions over two
// prefixes for a day, time-ordered with many same-second collisions, plus
// 4-hour beacon intervals covering it. It returns the instants worth
// querying: every event second and its neighbours.
func foldScenario(t *testing.T, seed uint64) (map[string][]byte, []netsim.Session, []beacon.Interval, []time.Time) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xf01d))
	peers := []netsim.Session{
		sess("rrc25", 200, "2001:db8:feed::1"),
		sess("rrc25", 300, "2001:db8:feed::2"),
		sess("rrc25", 400, "2001:db8:feed::3"),
	}
	steps := []time.Duration{0, 0, time.Second, 7 * time.Minute, 40 * time.Minute}
	f := collector.NewFleet()
	now := t0
	instants := []time.Time{t0}
	for i := 0; i < 150; i++ {
		now = now.Add(steps[rng.IntN(len(steps))])
		instants = append(instants, now.Add(-time.Second), now, now.Add(time.Second))
		s, p := peers[rng.IntN(len(peers))], foldPrefixes[rng.IntN(len(foldPrefixes))]
		switch roll := rng.IntN(100); {
		case roll < 45:
			// Stamped with the current interval's clock, or a stale one.
			clock := t0.Add(now.Sub(t0).Truncate(4 * time.Hour))
			if rng.IntN(4) == 0 {
				clock = clock.Add(-8 * time.Hour)
			}
			f.PeerAnnounce(now, s, p, attrsAt(clock, s.PeerAS, bgp.ASN(1000+rng.IntN(3)), 8298, 210312))
		case roll < 75:
			f.PeerWithdraw(now, s, p)
		case roll < 88:
			f.PeerState(now, s, mrt.StateEstablished, mrt.StateIdle)
		default:
			f.PeerState(now, s, mrt.StateActive, mrt.StateEstablished)
		}
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	var ivs []beacon.Interval
	for start := t0; start.Before(now); start = start.Add(4 * time.Hour) {
		for _, p := range foldPrefixes {
			ivs = append(ivs, beacon.Interval{Prefix: p, AnnounceAt: start, WithdrawAt: start.Add(2 * time.Hour), End: start.Add(4 * time.Hour)})
		}
	}
	return f.UpdatesData(), peers, ivs, instants
}

// ignoreLoopStateAt is the state walk this package used to run for
// IgnoreSessionState and LegacyDetector, kept here verbatim: unlike
// State.fold it leaves Path and Agg set after a withdrawal.
func ignoreLoopStateAt(evs []histEvent, t time.Time) State {
	var st State
	for _, ev := range evs {
		if !ev.at.Before(t) {
			break
		}
		st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			st.Present = true
			st.Path = ev.path
			st.Agg = ev.agg
			st.At = ev.at
		case evWithdraw:
			st.Present = false
		}
	}
	return st
}

// TestStateFoldMatchesOracle: over 50 random archives, History.StateAt and
// the cursor with an empty session stream equal the oracle's from-scratch
// walk over the oracle's own store at random instants; the stream
// detector's alerts equal the batch routes field by field; and the one
// thing the deleted ignore loop did differently — Path/Agg surviving a
// withdrawal — reaches no Report, no LegacyDetector report and no
// ZombieEvent, because every decision reads them only while Present.
func TestStateFoldMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			updates, peers, ivs, instants := foldScenario(t, seed)
			track := NewTrackSet(foldPrefixes)
			h, err := BuildHistory(updates, track)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := buildHistoryReference(updates, track)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(seed, 0xa7))
			stalePaths := 0
			for q := 0; q < 200; q++ {
				peer, p := peerOf(peers[rng.IntN(len(peers))]), foldPrefixes[rng.IntN(len(foldPrefixes))]
				at := instants[rng.IntN(len(instants))]
				if got, want := h.StateAt(peer, p, at), refStateAt(ref.pairEvents(peer, p), ref.sessionEvents(peer), at); !reflect.DeepEqual(got, want) {
					t.Fatalf("StateAt(%v, %v, %v) = %+v, oracle walk %+v", peer, p, at, got, want)
				}
				c := h.cursor(peer, p, false)
				got := c.advance(at)
				if want := refStateAt(ref.pairEvents(peer, p), nil, at); !reflect.DeepEqual(got, want) {
					t.Fatalf("session-less cursor(%v, %v, %v) = %+v, oracle walk %+v", peer, p, at, got, want)
				}
				old := ignoreLoopStateAt(h.pairEvents(peer, p), at)
				if !old.Present && old.Path.Length() > 0 {
					stalePaths++
					old.Path, old.Agg = bgp.ASPath{}, nil
				}
				if !reflect.DeepEqual(got, old) {
					t.Fatalf("fold differs from the old ignore loop beyond Path/Agg of an absent route: %+v vs %+v", got, old)
				}
			}
			if stalePaths == 0 {
				t.Fatal("no query hit a withdrawn route: the scenario does not exercise the difference")
			}

			// Report: the session-less detector fed by the old loop.
			d := &Detector{IgnoreSessionState: true, RecordPaths: true}
			results := make([]intervalResult, len(ivs))
			for i, iv := range ivs {
				results[i].visible = h.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.WithdrawAt)
				for _, peer := range h.Peers() {
					evs := h.pairEvents(peer, iv.Prefix)
					d.peerDecision(peer, iv, ignoreLoopStateAt(evs, iv.WithdrawAt.Add(d.threshold())),
						ignoreLoopStateAt(evs, iv.WithdrawAt), &results[i].routes, &results[i].pathObs)
				}
			}
			if got, want := d.DetectFromHistory(h, ivs), d.assemble(h.Peers(), ivs, results); !reflect.DeepEqual(got, want) {
				t.Error("IgnoreSessionState Report changes when Path/Agg survive a withdrawal")
			} else if len(got.Outbreaks) == 0 {
				t.Error("IgnoreSessionState Report is empty")
			}
			// LegacyDetector: likewise.
			ld := &LegacyDetector{Seed: seed}
			oldLegacy := ld.detectRows(h.Peers(), h.SeenAnnounced, func(peer PeerID, p netip.Prefix, at time.Time) State {
				return ignoreLoopStateAt(h.pairEvents(peer, p), at)
			}, ivs, lookingGlassAvailability)
			if got := ld.Detect(h, ivs); !reflect.DeepEqual(got, oldLegacy) {
				t.Error("LegacyDetector Report changes when Path/Agg survive a withdrawal")
			}
			// ZombieEvent: built from the batch decision's Route.
			if len(assertStreamMatchesBatch(t, updates, ivs)) == 0 {
				t.Error("no stream alert")
			}
		})
	}
}
