package mrt_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
)

// checkRoundTrip decodes every record of an MRT stream and requires
// AppendRecord to give back its exact bytes, for the two-octet-AS BGP4MP
// subtypes too. It skips record types the package does not model. A
// PEER_INDEX_TABLE listing a two-octet-AS peer, which the encoder writes
// in the four-octet form, must instead decode back to the same value. It
// returns how many records it checked.
func checkRoundTrip(t *testing.T, name string, data []byte) int {
	t.Helper()
	checked := 0
	for off := 0; off < len(data); {
		at := off
		off += mrt.HeaderLen + int(binary.BigEndian.Uint32(data[at+8:]))
		raw := data[at:off]
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
		if _, ok := rec.(*mrt.PeerIndexTable); ok && twoOctetPeer(raw) {
			back, err := (&mrt.Decoder{}).DecodeFramed(got)
			if err != nil || !reflect.DeepEqual(back, rec) {
				t.Fatalf("%s: table re-encodes to %x, which decodes to %+v, %v", name, got, back, err)
			}
		} else if !bytes.Equal(got, raw) {
			t.Fatalf("%s: %T re-encodes to\n%x\nwant\n%x", name, rec, got, raw)
		}
		checked++
	}
	return checked
}

// twoOctetPeer reports whether a well-formed PEER_INDEX_TABLE record lists
// a peer whose type has the AS4 bit clear (RFC 6396 §4.3.1).
func twoOctetPeer(raw []byte) bool {
	body := raw[mrt.HeaderLen:]
	p := 6 + int(binary.BigEndian.Uint16(body[4:])) // collector ID, view name
	count := int(binary.BigEndian.Uint16(body[p:]))
	p += 2
	for range count {
		typ := body[p]
		if typ&0x02 == 0 {
			return true
		}
		p += 1 + 4 + 4 + 4 // type, BGP ID, IPv4 address, four-octet AS
		if typ&0x01 != 0 {
			p += 12 // IPv6 address
		}
	}
	return false
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
