package mrt

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

// ParseCorpusEntry lets the external round-trip test read the committed
// FuzzReader corpus.
var ParseCorpusEntry = parseCorpusEntry

func testStateChange(ts time.Time) *BGP4MPStateChange {
	return &BGP4MPStateChange{Timestamp: ts, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		OldState: StateEstablished, NewState: StateIdle}
}

// TestWriterRejectsTimestampPast32Bits: the header holds 32-bit unix
// seconds, so a later time would wrap and read back decades off.
func TestWriterRejectsTimestampPast32Bits(t *testing.T) {
	late := time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := NewWriter(io.Discard).Write(testStateChange(late)); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("state change at %v: err = %v, want ErrBadTimestamp", late, err)
	}
	rib := &RIB{Timestamp: testTime, Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Entries: []RIBEntry{{OriginatedTime: late, Attrs: bgp.PathAttributes{HasOrigin: true}}}}
	if err := NewWriter(io.Discard).Write(rib); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("RIB entry originated at %v: err = %v, want ErrBadTimestamp", late, err)
	}
	// The last representable second still writes and reads back.
	last := time.Unix(1<<32-1, 0).UTC()
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(testStateChange(last)); err != nil {
		t.Fatal(err)
	}
	recs, err := readAll(&buf)
	if err != nil || len(recs) != 1 || !recs[0].RecordTime().Equal(last) {
		t.Fatalf("read back %v, %v; want one record at %v", recs, err, last)
	}
}

// TestWriterRejectsRecordTooBig: a body the Reader would refuse with
// ErrRecordTooBig must not be written in the first place.
func TestWriterRejectsRecordTooBig(t *testing.T) {
	m := &BGP4MPMessage{Timestamp: testTime, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		Data: make([]byte, MaxRecordLen)}
	if err := NewWriter(io.Discard).Write(m); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
	// At exactly MaxRecordLen the record writes and reads back.
	m.Data = m.Data[:MaxRecordLen-20]
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(m); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HeaderLen+MaxRecordLen {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), HeaderLen+MaxRecordLen)
	}
	if _, err := NewReader(&buf).Next(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRecordErrorKeepsDst: every failure returns dst as it came in.
func TestAppendRecordErrorKeepsDst(t *testing.T) {
	badAFI := testStateChange(testTime)
	badAFI.AFI = 7
	for name, rec := range map[string]Record{
		"pre-epoch":   testStateChange(time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC)),
		"past-32-bit": testStateChange(time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)),
		"bad-afi":     badAFI,
		"empty-rib":   &RIB{Timestamp: testTime, Prefix: netip.MustParsePrefix("10.0.0.0/8")},
		"too-big": &BGP4MPMessage{Timestamp: testTime, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
			Data: make([]byte, MaxRecordLen)},
		"four-octet-asn-on-as2": &BGP4MPMessage{Timestamp: testTime, PeerAS: 210312, AFI: bgp.AFIIPv4, AS2: true,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2")},
	} {
		dst := append(make([]byte, 0, 64), "kept"...)
		got, err := AppendRecord(dst, rec)
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		if string(got) != "kept" || cap(got) != cap(dst) {
			t.Errorf("%s: returned %q (cap %d), want dst unchanged", name, got, cap(got))
		}
	}
}

// TestAppendRecordMatchesWriter: AppendRecord after existing bytes
// appends exactly what Writer.Write emits for the same record.
func TestAppendRecordMatchesWriter(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(corpusDir, "seed-tabledumpv2"))
	if err != nil {
		t.Fatal(err)
	}
	data := parseCorpusEntry(t, raw)
	recs, err := readAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out := []byte("head")
	for _, rec := range recs {
		if out, err = AppendRecord(out, rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[4:], data) || string(out[:4]) != "head" {
		t.Fatal("appended encoding differs from the written stream")
	}
}
