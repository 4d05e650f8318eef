package archive

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
	"zombiescope/internal/netsim"
)

var t0 = time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)

func feed(t *testing.T, f *collector.Fleet, hours int) netsim.Session {
	t.Helper()
	sess := netsim.Session{
		Collector: "rrc25",
		PeerAS:    200,
		PeerIP:    netip.MustParseAddr("2001:db8:feed::1"),
		AFI:       bgp.AFIIPv6,
	}
	p := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	attrs := netsim.RouteAttrs{Path: bgp.NewASPath(200, 8298, 210312)}
	for h := 0; h < hours; h++ {
		at := t0.Add(time.Duration(h) * time.Hour)
		f.PeerAnnounce(at, sess, p, attrs)
		f.PeerWithdraw(at.Add(15*time.Minute), sess, p)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := collector.NewFleet()
	feed(t, f, 3)
	f.SnapshotRIBs(t0.Add(8 * time.Hour))
	set := &Set{Updates: f.UpdatesData(), Dumps: f.DumpData()}
	if err := Write(dir, set); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Updates["rrc25"], set.Updates["rrc25"]) {
		t.Error("updates differ after round trip")
	}
	if !bytes.Equal(got.Dumps["rrc25"], set.Dumps["rrc25"]) {
		t.Error("dumps differ after round trip")
	}
}

func TestRotatedSegments(t *testing.T) {
	f := collector.NewFleet()
	c := f.Collector("rrc25")
	c.SetRotatePeriod(time.Hour)
	feed(t, f, 4)
	segs := c.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4 (one per hour)", len(segs))
	}
	// Names follow the RIS convention and sort chronologically.
	if segs[0].Name != "updates.20240610.1200.mrt" {
		t.Errorf("first segment name %q", segs[0].Name)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Name <= segs[i-1].Name {
			t.Errorf("segment names not sorted: %q after %q", segs[i].Name, segs[i-1].Name)
		}
	}
	// Each segment is independently a valid MRT stream.
	total := 0
	for _, s := range segs {
		recs, err := mrt.ReadAll(bytes.NewReader(s.Data))
		if err != nil {
			t.Fatalf("segment %s: %v", s.Name, err)
		}
		total += len(recs)
	}
	if total != 8 {
		t.Errorf("records across segments = %d, want 8", total)
	}
}

func TestUpdatesDataEqualsSegmentConcatenation(t *testing.T) {
	f1 := collector.NewFleet()
	f1.Collector("rrc25").SetRotatePeriod(time.Hour)
	feed(t, f1, 4)
	f2 := collector.NewFleet()
	feed(t, f2, 4)
	if !bytes.Equal(f1.Collector("rrc25").UpdatesData(), f2.Collector("rrc25").UpdatesData()) {
		t.Error("rotated and unrotated archives differ as streams")
	}
}

func TestWriteFleetAndLoadRotated(t *testing.T) {
	dir := t.TempDir()
	f := collector.NewFleet()
	c := f.Collector("rrc25")
	c.SetRotatePeriod(time.Hour)
	feed(t, f, 4)
	f.SnapshotRIBs(t0.Add(8 * time.Hour))
	if err := WriteFleet(dir, f); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(dir, "rrc25"))
	if err != nil {
		t.Fatal(err)
	}
	// 4 rotated update files + bview.
	if len(files) != 5 {
		names := make([]string, 0, len(files))
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Fatalf("files = %v, want 4 updates + bview", names)
	}
	set, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mrt.ReadAll(bytes.NewReader(set.Updates["rrc25"]))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Errorf("loaded %d records, want 8", len(recs))
	}
	// Timestamps in order across segment boundaries.
	for i := 1; i < len(recs); i++ {
		if recs[i].RecordTime().Before(recs[i-1].RecordTime()) {
			t.Error("records out of order after concatenation")
		}
	}
	if len(set.Dumps["rrc25"]) == 0 {
		t.Error("dump stream missing")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty archive dir accepted")
	}
	if _, err := Load("/nonexistent/archive"); err == nil {
		t.Error("missing dir accepted")
	}
}
