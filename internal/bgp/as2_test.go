package bgp

import (
	"encoding/hex"
	"errors"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
)

// as2VectorUpdate is the UPDATE of the hand-assembled RFC 6793 BGP4MP
// vector the mrt package checks record by record: the file's hex bytes
// less the MRT common header and the 16 bytes of two-octet session
// context. Its AS_PATH and AGGREGATOR stand AS_TRANS for AS210312, which
// AS4_PATH and AS4_AGGREGATOR restore.
func as2VectorUpdate(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("../mrt/testdata/rfc6793_bgp4mp_as2.txt")
	if err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, line := range strings.Split(string(raw), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "[") {
			continue
		}
		h, err := hex.DecodeString(strings.Join(strings.Fields(line), ""))
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, h...)
	}
	const mrtHeader, session = 12, 16
	if len(b) < mrtHeader+session+HeaderLen {
		t.Fatalf("RFC 6793 vector holds %d bytes", len(b))
	}
	return b[mrtHeader+session:]
}

// TestDecodeAS2Merge pins RFC 6793 §4.2.3 on attribute blocks of a
// two-octet session, decoded with and without the intern tables.
func TestDecodeAS2Merge(t *testing.T) {
	const trans, transLo = 0x5b, 0xa0 // AS_TRANS 23456
	seq := func(asns ...ASN) PathSegment { return PathSegment{Type: ASSequence, ASNs: asns} }
	path := func(segs ...PathSegment) ASPath { return ASPath{Segments: segs} }
	clock := netip.AddrFrom4([4]byte{10, 12, 134, 34})
	asPath2 := []byte{0x40, AttrASPath, 8, 2, 3, 0x0d, 0x05, 0x20, 0x6a, trans, transLo} // 3333 8298 AS_TRANS
	as4Path := []byte{0xc0, AttrAS4Path, 10, 2, 2, 0, 0, 0x20, 0x6a, 0, 3, 0x35, 0x88}   // 8298 210312
	aggTrans := []byte{0xc0, AttrAggregator, 6, trans, transLo, 10, 12, 134, 34}
	as4Agg := []byte{0xc0, AttrAS4Aggregator, 8, 0, 3, 0x35, 0x88, 10, 12, 134, 34}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	cases := []struct {
		name  string
		attrs []byte
		path  ASPath
		agg   *Aggregator
	}{
		{"merged", cat(asPath2, aggTrans, as4Path, as4Agg), path(seq(3333, 8298, 210312)), &Aggregator{ASN: 210312, Addr: clock}},
		{"no AS4 attributes", cat(asPath2, aggTrans), path(seq(3333, 8298, asTrans)), &Aggregator{ASN: asTrans, Addr: clock}},
		{"AS4_PATH longer than AS_PATH", cat([]byte{0x40, AttrASPath, 4, 2, 1, 0x0d, 0x05}, as4Path), path(seq(3333)), nil},
		{"aggregator not AS_TRANS voids both", cat(asPath2, []byte{0xc0, AttrAggregator, 6, 0x20, 0x6a, 10, 12, 134, 34}, as4Path, as4Agg),
			path(seq(3333, 8298, asTrans)), &Aggregator{ASN: 8298, Addr: clock}},
		{"AS_SET leads", cat([]byte{0x40, AttrASPath, 10, 1, 2, 0, 1, 0, 2, 2, 1, trans, transLo}, []byte{0xc0, AttrAS4Path, 6, 2, 1, 0, 3, 0x35, 0x88}),
			path(PathSegment{Type: ASSet, ASNs: []ASN{1, 2}}, seq(210312)), nil},
		// Bytes that are a valid path of either width: two-octet [5] [],
		// four-octet [328192]. Interned, each must keep its own decode.
		{"bytes an AS4 path shares", []byte{0x40, AttrASPath, 6, 2, 1, 0, 5, 2, 0}, path(seq(5), PathSegment{Type: ASSequence, ASNs: []ASN{}}), nil},
	}
	var s Scratch
	if pa, err := decodePathAttributes(cases[len(cases)-1].attrs); err != nil || !reflect.DeepEqual(pa.ASPath, path(seq(328192))) {
		t.Fatalf("four-octet decode = %v, %v", pa.ASPath, err)
	}
	var pa PathAttributes
	if err := s.DecodePathAttributes(&pa, &AttrStore{}, cases[len(cases)-1].attrs, DecodeIntern); err != nil || !reflect.DeepEqual(pa.ASPath, path(seq(328192))) {
		t.Fatalf("interned four-octet decode = %v, %v", pa.ASPath, err)
	}
	for _, c := range cases {
		for _, df := range []DecodeFlags{DecodeAS2, DecodeAS2 | DecodeIntern} {
			var pa PathAttributes
			if err := s.DecodePathAttributes(&pa, &AttrStore{}, c.attrs, df); err != nil {
				t.Fatalf("%s (flags %b): %v", c.name, df, err)
			}
			if !reflect.DeepEqual(pa.ASPath, c.path) || !reflect.DeepEqual(pa.Aggregator, c.agg) || pa.Unknown != nil {
				t.Errorf("%s (flags %b): path %v, aggregator %+v, unknown %v; want %v, %+v, none",
					c.name, df, pa.ASPath, pa.Aggregator, pa.Unknown, c.path, c.agg)
			}
		}
	}
	for name, attrs := range map[string][]byte{
		"four-octet AGGREGATOR":  {0xc0, AttrAggregator, 8, 0, 3, 0x35, 0x88, 10, 12, 134, 34},
		"short AS4_AGGREGATOR":   cat(aggTrans, []byte{0xc0, AttrAS4Aggregator, 6, 0, 3, 0x35, 0x88, 10, 12}),
		"truncated AS_PATH":      {0x40, AttrASPath, 4, 2, 2, 0x0d, 0x05},
		"truncated AS4_PATH":     cat(asPath2, []byte{0xc0, AttrAS4Path, 6, 2, 2, 0, 0, 0x20, 0x6a}),
		"four-octet AS_PATH len": {0x40, AttrASPath, 6, 2, 1, 0, 0, 0x0d, 0x05},
	} {
		var pa PathAttributes
		if err := s.DecodePathAttributes(&pa, &AttrStore{}, attrs, DecodeAS2); !errors.Is(err, ErrBadAttribute) {
			t.Errorf("%s: err = %v, want ErrBadAttribute", name, err)
		}
	}
}
