package mrt

import (
	"bytes"
	"encoding/hex"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
)

// readVectors parses a hand-assembled vector file: '#' starts a comment,
// "[name]" starts a section, and everything else is hex bytes.
func readVectors(t testing.TB, path string) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	section := ""
	for n, line := range strings.Split(string(raw), "\n") {
		line, _, _ = strings.Cut(line, "#")
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			section = line[1 : len(line)-1]
			continue
		}
		b, err := hex.DecodeString(strings.Join(strings.Fields(line), ""))
		if err != nil {
			t.Fatalf("%s:%d: %v", path, n+1, err)
		}
		if len(b) > 0 && section == "" {
			t.Fatalf("%s:%d: bytes outside a section", path, n+1)
		}
		out[section] = append(out[section], b...)
	}
	return out
}

const tableDumpVector = "testdata/rfc6396_table_dump_v2.txt"

// TestRFC6396TableDumpV2Vector checks the TABLE_DUMP_V2 decoder and
// encoder against a stream assembled by hand from RFC 6396, not produced by
// this package's writer: a PEER_INDEX_TABLE with a two-octet-AS IPv4 peer
// and a four-octet-AS IPv6 peer, then a RIB_IPV6_UNICAST record for a
// beacon /48 whose entries carry the abbreviated MP_REACH_NLRI, a
// four-octet ASN in AS_PATH, COMMUNITIES and a beacon Aggregator clock.
func TestRFC6396TableDumpV2Vector(t *testing.T) {
	vec := readVectors(t, tableDumpVector)
	dump := vec["dump"]

	at := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	announced := time.Date(2024, 6, 10, 10, 0, 0, 0, time.UTC)
	beaconPrefix := netip.MustParsePrefix("2a0d:3dc1::/48")
	clock := &bgp.Aggregator{ASN: 210312, Addr: netip.AddrFrom4([4]byte{10, 12, 106, 32})}
	table := &PeerIndexTable{
		Timestamp:   at,
		CollectorID: netip.AddrFrom4([4]byte{193, 0, 4, 28}),
		ViewName:    "rrc00",
		Peers: []PeerEntry{
			{BGPID: netip.AddrFrom4([4]byte{192, 0, 2, 1}), Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1}), AS: 25091},
			{BGPID: netip.AddrFrom4([4]byte{192, 0, 2, 2}), Addr: netip.MustParseAddr("2001:db8::2"), AS: 211509},
		},
	}
	rib := &RIB{
		Timestamp: at,
		Sequence:  42,
		Prefix:    beaconPrefix,
		Entries: []RIBEntry{
			{PeerIndex: 1, OriginatedTime: announced, Attrs: bgp.PathAttributes{
				HasOrigin:   true,
				Origin:      bgp.OriginIGP,
				ASPath:      bgp.ASPath{Segments: []bgp.PathSegment{{Type: bgp.ASSequence, ASNs: []bgp.ASN{211509, 8298, 210312}}}},
				Aggregator:  clock,
				Communities: []bgp.Community{bgp.Community(8298<<16 | 100)},
				MPReach: &bgp.MPReachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
					NextHop: netip.MustParseAddr("2001:db8::2"), NLRI: []netip.Prefix{beaconPrefix}},
			}},
			{PeerIndex: 0, OriginatedTime: announced.Add(3 * time.Second), Attrs: bgp.PathAttributes{
				HasOrigin:  true,
				Origin:     bgp.OriginIGP,
				ASPath:     bgp.ASPath{Segments: []bgp.PathSegment{{Type: bgp.ASSequence, ASNs: []bgp.ASN{25091, 8298, 210312}}}},
				Aggregator: clock,
				MPReach: &bgp.MPReachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
					NextHop: netip.MustParseAddr("2001:db8::1"), NLRI: []netip.Prefix{beaconPrefix}},
			}},
		},
	}
	want := []Record{table, rib}

	// The Aggregator address is the beacon clock of the announcement.
	if got, ok := beacon.DecodeAggregatorClock(clock.Addr, at); !ok || !got.Equal(announced) {
		t.Fatalf("aggregator clock %s decodes to %v, %v; want %v", clock.Addr, got, ok, announced)
	}

	// Decode, allocating and borrowed: each record is compared before the
	// next is decoded, as the borrow contract requires.
	for _, borrow := range []bool{false, true} {
		dec := Decoder{Borrow: borrow}
		rest := dump
		for i, w := range want {
			if len(rest) < HeaderLen {
				t.Fatalf("borrow=%v: stream ends before record %d", borrow, i)
			}
			_, _, _, n := ParseHeader([HeaderLen]byte(rest))
			got, err := dec.DecodeFramed(rest[:HeaderLen+int(n)])
			if err != nil {
				t.Fatalf("borrow=%v: record %d: %v", borrow, i, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("borrow=%v: record %d decodes to\n%+v\nwant\n%+v", borrow, i, got, w)
			}
			rest = rest[HeaderLen+int(n):]
		}
		if len(rest) != 0 {
			t.Errorf("borrow=%v: %d bytes after the last record", borrow, len(rest))
		}
	}
	recs, err := ReadAll(bytes.NewReader(dump))
	if err != nil || !reflect.DeepEqual(recs, want) {
		t.Errorf("ReadAll = %+v, %v; want %+v", recs, err, want)
	}

	// Encode: the RIB record reproduces the vector byte for byte; the
	// table comes out in the encoder's four-octet-AS form.
	_, _, _, n := ParseHeader([HeaderLen]byte(dump))
	tableLen := HeaderLen + int(n)
	if got, err := AppendRecord(nil, rib); err != nil || !bytes.Equal(got, dump[tableLen:]) {
		t.Errorf("AppendRecord(RIB) = %x, %v\nwant %x", got, err, dump[tableLen:])
	}
	if got, err := AppendRecord(nil, table); err != nil || !bytes.Equal(got, vec["peer-index-table-as4"]) {
		t.Errorf("AppendRecord(PeerIndexTable) = %x, %v\nwant %x", got, err, vec["peer-index-table-as4"])
	}
	as4, err := (&Decoder{}).DecodeFramed(vec["peer-index-table-as4"])
	if err != nil || !reflect.DeepEqual(as4, table) {
		t.Errorf("four-octet-AS table decodes to %+v, %v; want %+v", as4, err, table)
	}
}

// TestBorrowedRIBDecodeAllocs is the allocation fence of the borrowed RIB
// decode: once the decoder's scratch is warm and the entries' AS paths and
// aggregators are interned, decoding a RIB record allocates nothing.
func TestBorrowedRIBDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	dump := readVectors(t, tableDumpVector)["dump"]
	_, _, _, n := ParseHeader([HeaderLen]byte(dump))
	rib := dump[HeaderLen+int(n):]
	dec := Decoder{Borrow: true}
	if _, err := dec.DecodeFramed(rib); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := dec.DecodeFramed(rib); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm borrowed RIB decode allocates %v allocs/op, want 0", avg)
	}
}
