package zombie

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
	"zombiescope/internal/pipeline"
)

// recordBounds returns the end offset of every record of an MRT stream.
func recordBounds(data []byte) []int {
	var bounds []int
	for pos := 0; pos < len(data); {
		pos += mrt.HeaderLen + int(binary.BigEndian.Uint32(data[pos+8:]))
		bounds = append(bounds, pos)
	}
	return bounds
}

// splitRecords cuts an MRT stream into nseg record-aligned segments of
// near-equal record count (nseg <= 0: one segment per record).
func splitRecords(data []byte, nseg int) [][]byte {
	bounds := recordBounds(data)
	if nseg <= 0 || nseg > len(bounds) {
		nseg = len(bounds)
	}
	segs := make([][]byte, 0, nseg)
	start := 0
	for s := 1; s <= nseg; s++ {
		end := bounds[s*len(bounds)/nseg-1]
		segs = append(segs, data[start:end])
		start = end
	}
	return segs
}

// TestSealSpansChunkBoundaries pins the seal-order invariant: one (peer,
// prefix) whose same-second withdraw/announce pairs and session reset
// straddle builder boundaries must seal to the same History however the
// stream is cut, and that History must answer like the reference store.
// Every event below shares its second with a neighbour of the opposite
// meaning, so any reordering across a boundary flips the final state.
func TestSealSpansChunkBoundaries(t *testing.T) {
	f := collector.NewFleet()
	s := sess("rrc25", 300, "2001:db8:feed::2")
	bystander := sess("rrc25", 200, "2001:db8:feed::1")
	f.PeerState(t0.Add(-time.Hour), s, mrt.StateActive, mrt.StateEstablished)
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 300, 8298, 210312))
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Duration(16+i) * time.Minute)
		f.PeerWithdraw(at, s, pfx)
		f.PeerAnnounce(at, bystander, pfx, attrsAt(t0, 200, 8298, 210312))
		f.PeerAnnounce(at, s, pfx, attrsAt(t0, 300, bgp.ASN(1000+i), 8298, 210312))
		f.PeerWithdraw(at, bystander, pfx)
	}
	reset := t0.Add(30 * time.Minute)
	f.PeerState(reset, s, mrt.StateEstablished, mrt.StateIdle)
	f.PeerState(reset, s, mrt.StateActive, mrt.StateEstablished)
	f.PeerAnnounce(reset, s, pfx, attrsAt(t0, 300, 4637, 8298, 210312))
	f.PeerWithdraw(reset, s, pfx)
	f.PeerAnnounce(reset, s, pfx, attrsAt(t0, 300, 1299, 8298, 210312))
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	updates := f.UpdatesData()
	data := updates["rrc25"]
	ivs := []beacon.Interval{{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}}
	track := NewTrackSet([]netip.Prefix{pfx})

	ref, err := buildHistoryReference(updates, track)
	if err != nil {
		t.Fatal(err)
	}
	det := &Detector{RecordPaths: true}
	wantRep := ref.detect(det, ivs)
	if len(wantRep.Outbreaks) != 1 || len(wantRep.Outbreaks[0].Routes) != 1 ||
		wantRep.Outbreaks[0].Routes[0].Path.String() != "300 1299 8298 210312" {
		t.Fatalf("reference report = %+v, want the last re-announcement stuck at one peer", wantRep.Outbreaks)
	}
	want, err := BuildHistory(updates, track)
	if err != nil {
		t.Fatal(err)
	}
	for _, nseg := range []int{1, 2, 0} {
		segs := splitRecords(data, nseg)
		for _, workers := range []int{1, 2, 8} {
			h, err := BuildHistoryStreams(map[string][][]byte{"rrc25": segs}, track, workers)
			if err != nil {
				t.Fatalf("%d segments, %d workers: %v", len(segs), workers, err)
			}
			if !reflect.DeepEqual(h, want) {
				t.Errorf("%d segments, %d workers: History diverges from the one-segment build", len(segs), workers)
			}
			if rep := det.DetectFromHistory(h, ivs); !reflect.DeepEqual(rep, wantRep) {
				t.Errorf("%d segments, %d workers: Report diverges from the reference store", len(segs), workers)
			}
		}
	}
}

// TestBuildHistoryErrorShape: a malformed record in the second collector
// must surface as the identical error from every archive entry point —
// wrapFileError alone defines the shape.
func TestBuildHistoryErrorShape(t *testing.T) {
	const k = 5 // the record of rrc25 that goes bad
	good := func() map[string][]byte {
		f := collector.NewFleet()
		for _, name := range []string{"rrc01", "rrc25"} {
			s := sess(name, 300, "2001:db8:feed::2")
			for i := 0; i < 12; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				if i%3 == 2 {
					f.PeerWithdraw(at, s, pfx)
				} else {
					f.PeerAnnounce(at, s, pfx, attrsAt(t0, 300, 8298, 210312))
				}
			}
		}
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
		return f.UpdatesData()
	}
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte, start, end int) []byte
		want    string
	}{
		{
			name:    "truncated body",
			corrupt: func(data []byte, start, end int) []byte { return data[:end-3] },
			want:    "zombie: collector rrc25: " + mrt.ErrTruncated.Error(),
		},
		{
			name: "corrupt BGP message",
			corrupt: func(data []byte, start, end int) []byte {
				marker := bytes.Index(data[start:end], bytes.Repeat([]byte{0xff}, bgp.MarkerLen))
				if marker < 0 {
					t.Fatal("no BGP marker in the record")
				}
				data[start+marker] = 0
				return data
			},
			want: "zombie: collector rrc25: " + bgp.ErrBadMarker.Error(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			updates := good()
			bounds := recordBounds(updates["rrc25"])
			updates["rrc25"] = tc.corrupt(updates["rrc25"], bounds[k-1], bounds[k])
			streams := map[string][][]byte{
				"rrc01": splitRecords(updates["rrc01"], 2),
				"rrc25": {updates["rrc25"][:bounds[2]], updates["rrc25"][bounds[2]:]},
			}
			_, err := BuildHistory(updates, nil)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("BuildHistory: error %v, want prefix %q", err, tc.want)
			}
			for _, b := range []struct {
				name  string
				build func() (*History, error)
			}{
				{"BuildHistoryParallel/1", func() (*History, error) { return BuildHistoryParallel(updates, nil, 1) }},
				{"BuildHistoryParallel/4", func() (*History, error) { return BuildHistoryParallel(updates, nil, 4) }},
				{"BuildHistoryStreams", func() (*History, error) { return BuildHistoryStreams(streams, nil, 4) }},
			} {
				if _, got := b.build(); got == nil || got.Error() != err.Error() {
					t.Errorf("%s: error %v, want BuildHistory's %q", b.name, got, err)
				}
			}
		})
	}
}

// TestTrackedBuildErrorIdentity: a tracked build validates an update none
// of whose prefixes it tracks without decoding its attributes, and must
// still fail on a malformed one with exactly the error the track-all build
// reports for the same bytes — at any parallelism and segmentation. The
// last case puts a malformed AS_PATH ahead of a malformed MP_REACH_NLRI:
// the first fault in wire order is the one reported.
func TestTrackedBuildErrorIdentity(t *testing.T) {
	origin := []byte{bgp.FlagTransitive, bgp.AttrOrigin, 1, 0}
	path := []byte{bgp.FlagTransitive, bgp.AttrASPath, 6, byte(bgp.ASSequence), 1, 0, 0, 0xfb, 0xf4}
	nextHop := []byte{bgp.FlagTransitive, bgp.AttrNextHop, 4, 192, 0, 2, 1}
	badPath := []byte{bgp.FlagTransitive, bgp.AttrASPath, 6, 9, 1, 0, 0, 0xfb, 0xf4}
	badReach := []byte{bgp.FlagOptional, bgp.AttrMPReachNLRI, 17, 0, 2, 1, 5, 0x20, 0x01, 0x0d, 0xb8, 0, 0,
		48, 0x2a, 0x0e, 0xbb, 0, 0, 0}
	untracked := []byte{24, 198, 51, 100} // 198.51.100.0/24
	for _, tc := range []struct {
		name  string
		attrs [][]byte
		want  string
	}{
		{"AS_PATH segment type", [][]byte{origin, badPath, nextHop}, "bad AS_PATH segment type 9"},
		{"COMMUNITIES length", [][]byte{origin, path, nextHop,
			{bgp.FlagOptional | bgp.FlagTransitive, bgp.AttrCommunities, 5, 0, 0, 0, 1, 2}}, "COMMUNITIES length 5"},
		{"AGGREGATOR length", [][]byte{origin, path, nextHop,
			{bgp.FlagOptional | bgp.FlagTransitive, bgp.AttrAggregator, 6, 0, 0, 0xfb, 0xf4, 10, 0}}, "AGGREGATOR length 6"},
		{"MP_REACH next-hop length", [][]byte{origin, path, badReach}, "MP_REACH_NLRI next hop length 5"},
		{"first fault in wire order", [][]byte{origin, badPath, badReach}, "bad AS_PATH segment type 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var attrs []byte
			for _, a := range tc.attrs {
				attrs = append(attrs, a...)
			}
			body := binary.BigEndian.AppendUint16([]byte{0, 0}, uint16(len(attrs)))
			body = append(append(body, attrs...), untracked...)
			bad := append(bytes.Repeat([]byte{0xff}, bgp.MarkerLen), 0, 0, byte(bgp.MsgUpdate))
			binary.BigEndian.PutUint16(bad[bgp.MarkerLen:], uint16(bgp.HeaderLen+len(body)))
			bad = append(bad, body...)

			// Tracked announcements around the bad record, so the builds
			// have events to store before and after it.
			var buf bytes.Buffer
			wr := mrt.NewWriter(&buf)
			for i := 0; i < 8; i++ {
				wire := bad
				if i != 5 {
					u := &bgp.Update{NLRI: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")}, Attrs: bgp.PathAttributes{
						HasOrigin: true, ASPath: bgp.NewASPath(64500, 64501), NextHop: netip.MustParseAddr("192.0.2.1"),
					}}
					var err error
					if wire, err = u.AppendWireFormat(nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := wr.Write(&mrt.BGP4MPMessage{
					Timestamp: t0.Add(time.Duration(i) * time.Minute), PeerAS: 64500, LocalAS: 64499, AFI: bgp.AFIIPv4,
					PeerIP: netip.MustParseAddr("192.0.2.2"), LocalIP: netip.MustParseAddr("192.0.2.100"), Data: wire,
				}); err != nil {
					t.Fatal(err)
				}
			}
			updates := map[string][]byte{"rrc00": buf.Bytes()}
			streams := map[string][][]byte{"rrc00": splitRecords(buf.Bytes(), 3)}
			_, want := BuildHistory(updates, nil)
			if want == nil || !errors.Is(want, bgp.ErrBadAttribute) || !strings.Contains(want.Error(), tc.want) {
				t.Fatalf("track-all build: error %v, want one naming %q", want, tc.want)
			}
			track := NewTrackSet([]netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")})
			for _, par := range []int{0, 4} {
				if _, got := BuildHistoryParallel(updates, track, par); got == nil || got.Error() != want.Error() {
					t.Errorf("tracked BuildHistoryParallel/%d: error %v, want %q", par, got, want)
				}
				if _, got := BuildHistoryStreams(streams, track, par); got == nil || got.Error() != want.Error() {
					t.Errorf("tracked BuildHistoryStreams/%d: error %v, want %q", par, got, want)
				}
			}
		})
	}
}

// assertMatchesReference checks a columnar History against the oracle's
// store event by event: same peers, and for every peer the same session
// stream and the same stream per prefix, in the same order.
func assertMatchesReference(t *testing.T, h *History, ref *referenceHistory) {
	t.Helper()
	if !reflect.DeepEqual(h.peers, ref.peers) {
		t.Fatalf("peers = %v, reference %v", h.peers, ref.peers)
	}
	events := 0
	for _, peer := range ref.peers {
		if got, want := h.sessionEvents(peer), ref.sessionEvents(peer); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: session stream diverges from the reference:\n got %+v\nwant %+v", peer, got, want)
		}
		events += len(ref.sessionEvents(peer))
		for p, want := range ref.events[peer] {
			if got := h.pairEvents(peer, p); !reflect.DeepEqual(got, want) {
				t.Errorf("%v %v: event stream diverges from the reference (%d events, want %d)", peer, p, len(got), len(want))
			}
			events += len(want)
		}
	}
	if h.Events() != events {
		t.Errorf("Events() = %d, reference holds %d", h.Events(), events)
	}
}

// sealScenario writes one collector's stream built to defeat the seal's
// shortcuts: a pair with more events than one builder block, in time order
// with same-second withdraw/announce ties throughout (so every cut lands
// between two of them); a pair whose timestamps step backwards (the only
// spans the seal sorts); announcements with and without communities; and a
// peer that only ever flaps its session.
func sealScenario(t *testing.T) map[string][]byte {
	t.Helper()
	f := collector.NewFleet()
	busy := sess("rrc25", 300, "2001:db8:feed::2")
	late := sess("rrc25", 400, "2001:db8:feed::3")
	idle := sess("rrc25", 500, "2001:db8:feed::4")
	f.PeerState(t0.Add(-time.Hour), busy, mrt.StateActive, mrt.StateEstablished)
	f.PeerState(t0.Add(-time.Hour), idle, mrt.StateActive, mrt.StateEstablished)
	for i := 0; i < blockRows/2+200; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		attrs := attrsAt(t0, 300, bgp.ASN(1000+i%7), 8298, 210312)
		if i%3 != 0 {
			attrs.Communities = []bgp.Community{bgp.Community(300<<16 | i%5), bgp.Community(i % 11)}[:1+i%2]
		}
		f.PeerWithdraw(at, busy, pfx)
		f.PeerAnnounce(at, busy, pfx, attrs)
		if i%50 == 0 {
			// The collector's clock steps back for one peer's records.
			f.PeerAnnounce(at.Add(-time.Duration(i%7)*time.Minute), late, pfx, attrsAt(t0, 400, 8298, 210312))
			f.PeerWithdraw(at.Add(-time.Duration(i)*time.Minute), late, pfx4)
			f.PeerState(at, idle, mrt.StateEstablished, mrt.StateIdle)
			f.PeerState(at, idle, mrt.StateActive, mrt.StateEstablished)
		}
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return f.UpdatesData()
}

// TestSealDeterministic: the parallel seal — per-builder cursors, blocks,
// the sort-only-if-needed path, the community arena — yields the History a
// single builder fed the whole stream yields, event for event what the
// oracle's store holds, for every segmentation and worker count; and
// sealing a builder does not disturb it.
func TestSealDeterministic(t *testing.T) {
	updates := sealScenario(t)
	data := updates["rrc25"]
	recs, err := mrttest.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildHistoryReference(updates, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One builder, sealed halfway and again at the end: Seal leaves the
	// builder observing.
	one := NewHistoryBuilder(nil)
	half := len(recs) / 2
	for i, rec := range recs {
		if i == half {
			fresh, err := BuildHistory(map[string][]byte{"rrc25": data[:recordBounds(data)[half-1]]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one.Seal(), fresh) {
				t.Error("Seal of the first half differs from a fresh build of it")
			}
		}
		if err := one.Observe("rrc25", rec); err != nil {
			t.Fatal(err)
		}
	}
	want := one.Seal()
	if !reflect.DeepEqual(one.Seal(), want) {
		t.Error("a second Seal of the same builder differs from the first")
	}
	assertMatchesReference(t, want, ref)
	if len(one.blocks) < 2 {
		t.Fatalf("one builder holds %d blocks: the scenario does not cross a block", len(one.blocks))
	}
	if _, sorted, _ := sealHistory(&pipeline.Engine{Workers: 1}, []*HistoryBuilder{one}); sorted != 2 || len(want.pairKeys) != 3 {
		t.Fatalf("seal sorted %d of %d spans, want the 2 out-of-order ones of 3", sorted, len(want.pairKeys))
	}
	if evs := want.sessionEvents(PeerID{Collector: "rrc25", AS: 500, Addr: netip.MustParseAddr("2001:db8:feed::4")}); len(evs) < 3 {
		t.Fatalf("the session-only peer has %d session events", len(evs))
	}

	for _, nseg := range []int{1, 2, 0} {
		segs := splitRecords(data, nseg)
		for _, workers := range []int{1, 2, 8} {
			h, err := BuildHistoryStreams(map[string][][]byte{"rrc25": segs}, nil, workers)
			if err != nil {
				t.Fatalf("%d segments, %d workers: %v", len(segs), workers, err)
			}
			if !reflect.DeepEqual(h, want) {
				t.Errorf("%d segments, %d workers: History diverges from the one-builder build", len(segs), workers)
			}
		}
	}
}

// TestRowLayout fences the stored row: at most 32 bytes and no pointer, so
// an arena of rows costs the collector nothing to scan or to write.
func TestRowLayout(t *testing.T) {
	typ := reflect.TypeOf(row{})
	if typ.Size() > 32 {
		t.Errorf("row is %d bytes, want <= 32", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint32, reflect.Uint16, reflect.Uint8:
		default:
			t.Errorf("row.%s is a %v: only fixed-size integers are pointer-free by construction", f.Name, f.Type.Kind())
		}
	}
}

// TestSealAllocs: the seal allocates per pair and per builder, never per
// event — doubling every pair's events must not add an allocation.
func TestSealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	build := func(perPair int) []*HistoryBuilder {
		builders := []*HistoryBuilder{NewHistoryBuilder(nil), NewHistoryBuilder(nil), NewHistoryBuilder(nil)}
		path := bgp.NewASPath(300, 8298, 210312)
		for i := 0; i < perPair; i++ {
			for _, as := range []bgp.ASN{200, 300, 400} {
				ev := histEvent{at: t0.Add(time.Duration(i) * time.Second), order: i + 1, kind: evAnnounce, path: path, comms: []bgp.Community{1, 2}}
				builders[i%3].add(PeerID{Collector: "rrc25", AS: as}, pfx, ev)
				builders[i%3].add(PeerID{Collector: "rrc25", AS: as}, pfx4, ev)
			}
		}
		return builders
	}
	e := &pipeline.Engine{Workers: 1}
	allocs := func(builders []*HistoryBuilder) float64 {
		return testing.AllocsPerRun(10, func() {
			if h, _, err := sealHistory(e, builders); err != nil || len(h.pairKeys) != 6 {
				t.Fatalf("seal: %v", err)
			}
		})
	}
	small, large := allocs(build(600)), allocs(build(1200))
	if large > small {
		t.Errorf("seal allocates %.0f times for 1200 events per pair, %.0f for 600: it must not grow with events", large, small)
	}
}

// TestHistoryTooLarge: past the span index's bound every entry point
// returns ErrHistoryTooLarge rather than a History with wrapped offsets —
// one builder refusing the event that would cross it, and the seal refusing
// builders that are each within it but together are not.
func TestHistoryTooLarge(t *testing.T) {
	defer func(old uint64) { maxHistory = old }(maxHistory)
	maxHistory = 6

	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	for i := 0; i < 4; i++ { // 4 records of 3 announcements: 12 events
		u := &bgp.Update{
			NLRI: []netip.Prefix{pfx4, netip.MustParsePrefix("93.175.147.0/24"), netip.MustParsePrefix("93.175.148.0/24")},
			Attrs: bgp.PathAttributes{
				HasOrigin: true,
				ASPath:    bgp.NewASPath(64500, 64501),
				NextHop:   netip.MustParseAddr("192.0.2.1"),
			},
		}
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.Write(&mrt.BGP4MPMessage{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			PeerAS:    64500, LocalAS: 64499, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.2"), LocalIP: netip.MustParseAddr("192.0.2.100"),
			Data: wire,
		}); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	recs, err := mrttest.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	b := NewHistoryBuilder(nil)
	for i, rec := range recs {
		err := b.Observe("rrc00", rec)
		if want := i >= 2; (err != nil) != want || (want && !errors.Is(err, ErrHistoryTooLarge)) {
			t.Fatalf("Observe of record %d: %v", i, err)
		}
	}
	if h := b.Seal(); h.Events() != 6 {
		t.Errorf("a full builder sealed %d events, want the 6 it accepted", h.Events())
	}
	for _, nseg := range []int{1, 0} { // one builder over the bound; four within it
		if _, err := BuildHistoryStreams(map[string][][]byte{"rrc00": splitRecords(data, nseg)}, nil, 2); !errors.Is(err, ErrHistoryTooLarge) {
			t.Errorf("BuildHistoryStreams over %d segments: %v, want ErrHistoryTooLarge", nseg, err)
		}
	}
	maxHistory = 3 // the fourth record's position alone is past the bound
	if _, err := BuildHistoryStreams(map[string][][]byte{"rrc00": splitRecords(data, 0)}, nil, 2); !errors.Is(err, ErrHistoryTooLarge) {
		t.Errorf("BuildHistoryStreams past the position bound: %v, want ErrHistoryTooLarge", err)
	}
	// Positions are bound after the fold, yet the first fault still wins:
	// a broken UPDATE in the first record comes before the bound, one in
	// the fourth comes after it.
	for _, bad := range []int{0, 3} {
		segs := splitRecords(bytes.Clone(data), 0)
		marker := bytes.Index(segs[bad], bytes.Repeat([]byte{0xff}, bgp.MarkerLen))
		segs[bad][marker] = 0
		_, err := BuildHistoryStreams(map[string][][]byte{"rrc00": segs}, nil, 2)
		if want := bad == 3; err == nil || errors.Is(err, ErrHistoryTooLarge) != want || !want && !errors.Is(err, bgp.ErrBadMarker) {
			t.Errorf("a broken UPDATE in record %d: %v, want ErrHistoryTooLarge %v", bad, err, want)
		}
	}
}
