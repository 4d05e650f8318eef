package zombie

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
)

// allocHistoryArchive writes an update archive of announce/withdraw churn
// over a handful of (peer, prefix) pairs — the steady-state shape of a
// beacon campaign, where nearly every record repeats known peers, known
// prefixes, and known AS paths.
func allocHistoryArchive(t *testing.T, records int) (map[string][]byte, TrackSet) {
	t.Helper()
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("93.175.146.0/24"),
		netip.MustParsePrefix("93.175.147.0/24"),
	}
	peers := []netip.Addr{
		netip.MustParseAddr("192.0.2.2"),
		netip.MustParseAddr("192.0.2.3"),
	}
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	start := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	for i := 0; i < records; i++ {
		p := prefixes[i%len(prefixes)]
		u := &bgp.Update{NLRI: []netip.Prefix{p}}
		if i%4 == 3 {
			u = &bgp.Update{Withdrawn: []netip.Prefix{p}}
		} else {
			u.Attrs = bgp.PathAttributes{
				HasOrigin: true,
				ASPath:    bgp.ASPath{Segments: []bgp.PathSegment{{Type: bgp.ASSequence, ASNs: []bgp.ASN{64500, 64501, bgp.ASN(64510 + i%3)}}}},
				NextHop:   netip.MustParseAddr("192.0.2.1"),
			}
		}
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.Write(&mrt.BGP4MPMessage{
			Timestamp: start.Add(time.Duration(i) * time.Second),
			PeerAS:    64500, LocalAS: 64499, AFI: bgp.AFIIPv4,
			PeerIP: peers[i%len(peers)], LocalIP: netip.MustParseAddr("192.0.2.100"),
			Data: wire,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return map[string][]byte{"rrc00": buf.Bytes()}, NewTrackSet(prefixes)
}

// TestBuildHistoryAllocs is the allocation regression fence for the full
// history build: the borrowed chunk fold, scratch decode, interning, and the
// columnar builder together must stay well under one allocation per
// record (slice growth and the final seal amortize across the archive).
func TestBuildHistoryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const records = 500
	updates, track := allocHistoryArchive(t, records)
	// Warm the buffer pool and intern tables.
	if _, err := BuildHistory(updates, track); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		h, err := BuildHistory(updates, track)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.peers) != 2 {
			t.Fatalf("peers = %d, want 2", len(h.peers))
		}
	})
	perRecord := avg / records
	if perRecord > 0.5 {
		t.Errorf("BuildHistory allocates %.0f allocs (%.2f/record), want < 0.5/record", avg, perRecord)
	}
}

// TestStreamObserveAllocs is the allocation fence for the real-time path:
// once every (peer, prefix) state exists, Advance+Observe decodes into the
// detector's scratch workspace and folds in place, so a record costs no
// allocation. A detector decoding through the allocating Update() path
// pays several per record.
func TestStreamObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const records = 500
	updates, track := allocHistoryArchive(t, records)
	recs, err := mrttest.ReadAll(bytes.NewReader(updates["rrc00"]))
	if err != nil {
		t.Fatal(err)
	}
	// One check per prefix, due long after the replay: steady state, no
	// alert is built.
	var ivs []beacon.Interval
	for p := range track {
		start := recs[len(recs)-1].RecordTime().Add(24 * time.Hour)
		ivs = append(ivs, beacon.Interval{Prefix: p, AnnounceAt: start, WithdrawAt: start.Add(2 * time.Hour), End: start.Add(4 * time.Hour)})
	}
	sd := NewStreamDetector(ivs, 0, nil)
	feed := func() {
		for _, rec := range recs {
			sd.Advance(rec.RecordTime())
			sd.Observe("rrc00", rec)
		}
	}
	feed() // warm the pair states and the intern tables
	avg := testing.AllocsPerRun(20, feed)
	if perRecord := avg / records; perRecord > 0.1 {
		t.Errorf("stream detector allocates %.0f allocs (%.2f/record), want < 0.1/record", avg, perRecord)
	}
	if len(sd.state) != 2 || sd.PendingChecks() != len(ivs) {
		t.Fatalf("states = %d, pending = %d; want the archive's 2 pairs folded and no check fired", len(sd.state), sd.PendingChecks())
	}
}
