package archive

import (
	"bytes"
	"testing"
	"time"

	"zombiescope/internal/collector"
)

func TestOpenMappedMatchesLoad(t *testing.T) {
	dir := t.TempDir()
	f := collector.NewFleet()
	feed(t, f, 4)
	f.SnapshotRIBs(t0.Add(8 * time.Hour))
	writeRotated(t, dir, f, time.Hour)

	if names, err := Collectors(dir); err != nil || len(names) != 1 || names[0] != "rrc25" {
		t.Fatalf("Collectors = %v, %v; want [rrc25]", names, err)
	}
	// Load is OpenMapped + Materialize + Close, so the ground truth is the
	// fleet's own in-memory streams, not a second directory reader.
	set, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := f.Collector("rrc25"); !bytes.Equal(set.Updates["rrc25"], c.UpdatesData()) || !bytes.Equal(set.Dumps["rrc25"], c.DumpData()) {
		t.Fatal("Load differs from the streams the fleet wrote")
	}
	ms, err := OpenMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	segs := ms.Updates["rrc25"]
	if len(segs) != 4 {
		t.Fatalf("mapped segments = %d, want 4 rotated files", len(segs))
	}
	var concat bytes.Buffer
	for _, seg := range segs {
		concat.Write(seg)
	}
	if !bytes.Equal(concat.Bytes(), set.Updates["rrc25"]) {
		t.Error("mapped segments do not concatenate to the loaded stream")
	}
	if !bytes.Equal(ms.Dumps["rrc25"], set.Dumps["rrc25"]) {
		t.Error("mapped dump differs from loaded dump")
	}

	mat := ms.Materialize()
	if !bytes.Equal(mat.Updates["rrc25"], set.Updates["rrc25"]) {
		t.Error("Materialize differs from Load")
	}
	if !bytes.Equal(mat.Dumps["rrc25"], set.Dumps["rrc25"]) {
		t.Error("Materialize dump differs from Load")
	}
	// Materialized copies must survive Close.
	ms.Close()
	if len(mat.Updates["rrc25"]) == 0 {
		t.Error("materialized copy lost after Close")
	}
}

func TestOpenMappedErrors(t *testing.T) {
	if _, err := OpenMapped(t.TempDir()); err == nil {
		t.Error("empty archive dir accepted")
	}
	if _, err := OpenMapped("/nonexistent/archive"); err == nil {
		t.Error("missing dir accepted")
	}
}
