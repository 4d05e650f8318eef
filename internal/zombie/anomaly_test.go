package zombie

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// TestAnomalyDetectorTable pins what callers and the zombiehunt -detect flag
// see of the detector table: the sorted names, that each name builds the
// detector reporting it, and the unknown-name error text.
func TestAnomalyDetectorTable(t *testing.T) {
	want := []string{"community", "hyperspecific", "moas", "zombie"}
	if got := AnomalyDetectorNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AnomalyDetectorNames() = %v, want %v", got, want)
	}
	dets, err := BuildAnomalyDetectors(nil, AnomalyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dets {
		if d.Name() != want[i] {
			t.Errorf("detector %d is %q, want %q", i, d.Name(), want[i])
		}
	}
	dets, err = BuildAnomalyDetectors([]string{"zombie", "moas"}, AnomalyConfig{})
	if err != nil || len(dets) != 2 || dets[0].Name() != "zombie" || dets[1].Name() != "moas" {
		t.Fatalf("BuildAnomalyDetectors(zombie, moas) = %v, %v: want both, in the order asked", dets, err)
	}
	_, err = BuildAnomalyDetectors([]string{"moas", "bogus"}, AnomalyConfig{})
	const wantErr = `zombie: unknown anomaly detector "bogus" (have [community hyperspecific moas zombie])`
	if err == nil || err.Error() != wantErr {
		t.Fatalf("unknown name: error %v, want %q", err, wantErr)
	}
}

// boundaryEvent is one UPDATE a peer sends in TestAnomalyThresholdBoundaries.
type boundaryEvent struct {
	at       time.Duration // after the test's t0
	peer     byte          // last octet of the peer address; AS 64500+peer
	withdraw bool
	origin   bgp.ASN
	comms    []bgp.Community
}

// boundaryFindings builds a history with NewHistoryBuilder from evs, all
// for prefix p, and runs the named detector over it with no window.
func boundaryFindings(t *testing.T, detector string, p netip.Prefix, evs []boundaryEvent) []Anomaly {
	t.Helper()
	t0 := time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	b := NewHistoryBuilder(nil)
	for _, ev := range evs {
		peerAS := bgp.ASN(64500 + int(ev.peer))
		u := &bgp.Update{Withdrawn: []netip.Prefix{p}}
		if !ev.withdraw {
			u = &bgp.Update{NLRI: []netip.Prefix{p}, Attrs: bgp.PathAttributes{
				HasOrigin: true, ASPath: bgp.NewASPath(peerAS, ev.origin),
				NextHop: netip.MustParseAddr("192.0.2.1"), Communities: ev.comms,
			}}
		}
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Observe("rrc00", &mrt.BGP4MPMessage{
			Timestamp: t0.Add(ev.at), PeerAS: peerAS, LocalAS: 64499, AFI: bgp.AFIIPv4,
			PeerIP: netip.AddrFrom4([4]byte{192, 0, 2, ev.peer}), LocalIP: netip.MustParseAddr("192.0.2.100"),
			Data: wire,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dets, err := BuildAnomalyDetectors([]string{detector}, AnomalyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return RunAnomalyDetectors(b.Seal(), Window{}, dets, 0).Findings
}

// TestAnomalyThresholdBoundaries pins the fixed thresholds of the
// non-zombie detectors on both sides of each boundary: a 1h MOAS
// overlap, a 30m hyper-specific visibility, and 8 community changes
// within 15m.
func TestAnomalyThresholdBoundaries(t *testing.T) {
	p4 := netip.MustParsePrefix("93.175.146.0/24")
	check := func(name string, got []Anomaly, want int, lifespan time.Duration) {
		t.Helper()
		if len(got) != want {
			t.Fatalf("%s: %d findings, want %d: %+v", name, len(got), want, got)
		}
		if want == 1 && got[0].Lifespan() != lifespan {
			t.Errorf("%s: lifespan %v, want %v", name, got[0].Lifespan(), lifespan)
		}
	}

	// MOAS: a second origin joins a minute in and leaves d later.
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{{time.Hour, 1}, {time.Hour - time.Second, 0}} {
		got := boundaryFindings(t, "moas", p4, []boundaryEvent{
			{at: 0, peer: 2, origin: 100},
			{at: time.Minute, peer: 3, origin: 200},
			{at: time.Minute + tc.d, peer: 3, withdraw: true},
		})
		check(fmt.Sprintf("moas overlap %v", tc.d), got, tc.want, tc.d)
		if tc.want == 1 && !reflect.DeepEqual(got[0].Origins, []bgp.ASN{100, 200}) {
			t.Errorf("moas origins %v, want [100 200]", got[0].Origins)
		}
	}

	// Hyper-specific: a /25 visible for d.
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{{30 * time.Minute, 1}, {30*time.Minute - time.Second, 0}} {
		got := boundaryFindings(t, "hyperspecific", netip.MustParsePrefix("93.175.146.0/25"), []boundaryEvent{
			{at: 0, peer: 2, origin: 100},
			{at: tc.d, peer: 2, withdraw: true},
		})
		check(fmt.Sprintf("hyper-specific visible %v", tc.d), got, tc.want, tc.d)
	}

	// Community storm: n community changes, the first n-1 a second apart
	// and the last at span after the first.
	storm := func(n int, span time.Duration) []Anomaly {
		evs := []boundaryEvent{{at: 0, peer: 2, origin: 100, comms: []bgp.Community{1}}}
		for i := 0; i < n; i++ {
			at := time.Minute + time.Duration(i)*time.Second
			if i == n-1 {
				at = time.Minute + span
			}
			evs = append(evs, boundaryEvent{at: at, peer: 2, origin: 100, comms: []bgp.Community{bgp.Community(2 + i%2)}})
		}
		return boundaryFindings(t, "community", p4, evs)
	}
	got := storm(8, 15*time.Minute)
	check("8 changes in 15m", got, 1, 15*time.Minute)
	if got[0].Count != 8 {
		t.Errorf("storm counts %d changes, want 8", got[0].Count)
	}
	check("7 changes in 15m", storm(7, 15*time.Minute), 0, 0)
	check("8 changes in 15m+1s", storm(8, 15*time.Minute+time.Second), 0, 0)
}
