package mrt_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
)

// checkRoundTrip decodes every record of an MRT stream and requires
// AppendRecord to give back its exact bytes. It skips what the encoder
// never emits: record types the package does not model and the legacy
// two-octet-AS BGP4MP subtypes. It returns how many records it checked.
func checkRoundTrip(t *testing.T, name string, data []byte) int {
	t.Helper()
	checked := 0
	for off := 0; off < len(data); {
		at := off
		off += mrt.HeaderLen + int(binary.BigEndian.Uint32(data[at+8:]))
		raw := data[at:off]
		if typ, sub := binary.BigEndian.Uint16(raw[4:]), binary.BigEndian.Uint16(raw[6:]); typ == mrt.TypeBGP4MP &&
			(sub == mrt.SubtypeMessage || sub == mrt.SubtypeStateChange) {
			continue
		}
		rec, err := (&mrt.Decoder{}).DecodeFramed(raw)
		if err != nil {
			t.Fatalf("%s: record at %d: %v", name, at, err)
		}
		if rec == nil {
			continue
		}
		got, err := mrt.AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("%s: re-encoding %T: %v", name, rec, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("%s: %T re-encodes to\n%x\nwant\n%x", name, rec, got, raw)
		}
		checked++
	}
	return checked
}

// TestAppendRecordRoundTrip re-encodes the committed FuzzReader corpus
// and the author scenario's update and RIB-dump archives byte for byte.
func TestAppendRecordRoundTrip(t *testing.T) {
	corpus, err := filepath.Glob("testdata/fuzz/FuzzReader/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no FuzzReader corpus: %v", err)
	}
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, filepath.Base(path), mrt.ParseCorpusEntry(t, raw))
	}

	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		t.Fatal(err)
	}
	for what, files := range map[string]map[string][]byte{"updates": data.Updates, "dumps": data.Dumps} {
		checked := 0
		for name, raw := range files {
			checked += checkRoundTrip(t, what+"/"+name, raw)
		}
		if checked == 0 {
			t.Errorf("%s: no record checked", what)
		}
	}
}
