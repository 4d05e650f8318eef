package zombie

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
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

	ref, err := BuildHistoryReference(updates, track)
	if err != nil {
		t.Fatal(err)
	}
	det := &Detector{RecordPaths: true}
	wantRep := ref.Detect(det, ivs)
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
