package archive

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
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

// writeRotated stores a fleet's archives in the rotated layout of a RIS
// mirror: each collector's update stream cut at record boundaries into
// one updates.YYYYMMDD.HHMM.mrt file per period, plus its bview.mrt.
func writeRotated(t *testing.T, dir string, f *collector.Fleet, period time.Duration) {
	t.Helper()
	if err := Write(dir, &Set{Dumps: f.DumpData()}); err != nil {
		t.Fatal(err)
	}
	periodOf := func(rec []byte) time.Time {
		return time.Unix(int64(binary.BigEndian.Uint32(rec)), 0).UTC().Truncate(period)
	}
	for name, data := range f.UpdatesData() {
		for len(data) > 0 {
			start, n := periodOf(data), 0
			for n < len(data) && periodOf(data[n:]).Equal(start) {
				n += mrt.HeaderLen + int(binary.BigEndian.Uint32(data[n+8:]))
			}
			file := filepath.Join(dir, name, "updates."+start.Format("20060102.1504")+".mrt")
			if err := os.WriteFile(file, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			data = data[n:]
		}
	}
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

func TestLoadRotated(t *testing.T) {
	dir := t.TempDir()
	f := collector.NewFleet()
	feed(t, f, 4)
	f.SnapshotRIBs(t0.Add(8 * time.Hour))
	writeRotated(t, dir, f, time.Hour)
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
	recs, err := mrttest.ReadAll(bytes.NewReader(set.Updates["rrc25"]))
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
