package mrt

import (
	"bytes"
	"encoding/binary"
	"flag"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

// Regenerate the committed seed corpus with:
//
//	go test ./internal/mrt -run TestFuzzSeedCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the seed corpus under testdata/fuzz/FuzzReader")

const corpusDir = "testdata/fuzz/FuzzReader"

// corpusSeeds builds the committed FuzzReader seeds: well-formed streams of
// every record shape the reader models, so mutation starts from deep inside
// the format rather than rediscovering framing from zeros.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	ts := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	write := func(recs ...Record) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	stateChanges := write(
		&BGP4MPStateChange{Timestamp: ts, PeerAS: 25091, LocalAS: 12654, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
			OldState: StateIdle, NewState: StateEstablished},
		&BGP4MPStateChange{Timestamp: ts.Add(time.Hour), PeerAS: 25091, LocalAS: 12654, AFI: bgp.AFIIPv6,
			PeerIP: netip.MustParseAddr("2001:db8::1"), LocalIP: netip.MustParseAddr("2001:db8::2"),
			OldState: StateEstablished, NewState: StateIdle},
	)

	u4 := &bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("93.175.147.0/24")},
		NLRI:      []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
		Attrs: bgp.PathAttributes{
			HasOrigin:  true,
			ASPath:     bgp.NewASPath(25091, 8298, 210312),
			Aggregator: &bgp.Aggregator{ASN: 210312, Addr: netip.MustParseAddr("10.19.29.192")},
		},
	}
	wire4, err := u4.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	u6 := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			ASPath:    bgp.NewASPath(25091, 8298, 210312),
			MPReach: &bgp.MPReachNLRI{
				AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48")},
			},
		},
	}
	wire6, err := u6.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	messages := write(
		&BGP4MPMessage{Timestamp: ts, PeerAS: 25091, LocalAS: 12654, AFI: bgp.AFIIPv4,
			PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
			Data: wire4},
		&BGP4MPMessage{Timestamp: ts.Add(time.Minute), PeerAS: 25091, LocalAS: 12654, AFI: bgp.AFIIPv6,
			PeerIP: netip.MustParseAddr("2001:db8::1"), LocalIP: netip.MustParseAddr("2001:db8::2"),
			Data: wire6},
	)

	table := &PeerIndexTable{
		Timestamp:   ts,
		CollectorID: netip.MustParseAddr("193.0.4.28"),
		ViewName:    "rrc00",
		Peers: []PeerEntry{
			{BGPID: netip.MustParseAddr("192.0.2.1"), Addr: netip.MustParseAddr("192.0.2.1"), AS: 25091},
			{BGPID: netip.MustParseAddr("192.0.2.9"), Addr: netip.MustParseAddr("2001:db8::9"), AS: 8298},
		},
	}
	tableDump := write(
		table,
		&RIB{Timestamp: ts, Sequence: 0, Prefix: netip.MustParsePrefix("93.175.146.0/24"),
			Entries: []RIBEntry{{PeerIndex: 0, OriginatedTime: ts.Add(-time.Hour),
				Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: bgp.NewASPath(25091, 210312)}}}},
		&RIB{Timestamp: ts, Sequence: 1, Prefix: netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
			Entries: []RIBEntry{{PeerIndex: 1, OriginatedTime: ts.Add(-2 * time.Hour),
				Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: bgp.NewASPath(8298, 210312)}}}},
	)

	// Entries that carry communities, an unknown attribute and MP_UNREACH,
	// in two records of different families: a borrowed decode that let two
	// entries (or a later record) share storage shows as a mismatch in
	// FuzzDecoderBorrow.
	v6, v4 := netip.MustParsePrefix("2a0d:3dc1:1200::/48"), netip.MustParsePrefix("93.175.146.0/24")
	storageEntry := func(peer uint16, comm uint16, withdrawn string, extra byte) RIBEntry {
		e := RIBEntry{PeerIndex: peer, OriginatedTime: ts.Add(-time.Hour), Attrs: bgp.PathAttributes{
			HasOrigin:   true,
			ASPath:      bgp.NewASPath(25091, 8298, 210312),
			Communities: []bgp.Community{bgp.NewCommunity(8298, comm), bgp.NewCommunity(25091, comm+1)},
			MPUnreach: &bgp.MPUnreachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				Withdrawn: []netip.Prefix{netip.MustParsePrefix(withdrawn)}},
			Unknown: []bgp.RawAttr{{Flags: bgp.FlagOptional | bgp.FlagTransitive, Type: 99, Value: []byte{extra, extra + 1, extra + 2}}},
		}}
		return e
	}
	withMPReach := func(e RIBEntry, p netip.Prefix) RIBEntry {
		e.Attrs.MPReach = &bgp.MPReachNLRI{AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
			NextHop: netip.MustParseAddr("2001:db8::9"), NLRI: []netip.Prefix{p}}
		return e
	}
	ribStorage := write(
		table,
		&RIB{Timestamp: ts, Sequence: 0, Prefix: v6, Entries: []RIBEntry{
			withMPReach(storageEntry(0, 100, "2a0d:3dc1:1300::/48", 1), v6),
			withMPReach(storageEntry(1, 200, "2a0d:3dc1:1400::/48", 7), v6),
			{PeerIndex: 1, OriginatedTime: ts, Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: bgp.NewASPath(8298, 210312)}},
		}},
		&RIB{Timestamp: ts, Sequence: 1, Prefix: v4, Entries: []RIBEntry{
			{PeerIndex: 0, OriginatedTime: ts, Attrs: bgp.PathAttributes{HasOrigin: true, ASPath: bgp.NewASPath(25091, 210312),
				NextHop: netip.MustParseAddr("192.0.2.1")}},
			storageEntry(1, 300, "2a0d:3dc1:1500::/48", 9),
		}},
	)

	// The writer only emits the AS4 subtypes; hand-frame a legacy 2-byte-AS
	// state change so the old code path has a seed too.
	var legacy []byte
	body := binary.BigEndian.AppendUint16(nil, 25091) // peer AS
	body = binary.BigEndian.AppendUint16(body, 12654) // local AS
	body = binary.BigEndian.AppendUint16(body, 0)     // ifindex
	body = binary.BigEndian.AppendUint16(body, uint16(bgp.AFIIPv4))
	body = append(body, 192, 0, 2, 1, 192, 0, 2, 2) // peer, local
	body = binary.BigEndian.AppendUint16(body, uint16(StateActive))
	body = binary.BigEndian.AppendUint16(body, uint16(StateEstablished))
	legacy = binary.BigEndian.AppendUint32(legacy, uint32(ts.Unix()))
	legacy = binary.BigEndian.AppendUint16(legacy, TypeBGP4MP)
	legacy = binary.BigEndian.AppendUint16(legacy, SubtypeStateChange)
	legacy = binary.BigEndian.AppendUint32(legacy, uint32(len(body)))
	legacy = append(legacy, body...)

	// An unsupported record type between two supported ones: the reader
	// must skip it, and mutations around the skip path are worth seeding.
	var mixed []byte
	mixed = append(mixed, stateChanges...)
	mixed = binary.BigEndian.AppendUint32(mixed, uint32(ts.Unix()))
	mixed = binary.BigEndian.AppendUint16(mixed, 32) // TABLE_DUMP (v1): not modeled
	mixed = binary.BigEndian.AppendUint16(mixed, 1)
	mixed = binary.BigEndian.AppendUint32(mixed, 4)
	mixed = append(mixed, 0xde, 0xad, 0xbe, 0xef)
	mixed = append(mixed, messages...)

	return map[string][]byte{
		"seed-statechange-as4":   stateChanges,
		"seed-statechange-as2":   legacy,
		"seed-bgp4mp-messages":   messages,
		"seed-tabledumpv2":       tableDump,
		"seed-mixed-unsupported": mixed,
		"seed-rib-entry-storage": ribStorage,
		"seed-rfc6396-vector":    readVectors(t, tableDumpVector)["dump"],
	}
}

// corpusEntry renders data in the `go test fuzz v1` single-[]byte format
// FuzzReader consumes.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// parseCorpusEntry is the inverse, for validating committed files.
func parseCorpusEntry(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := strings.SplitN(string(raw), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("bad corpus header %q", lines[0])
	}
	body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("bad corpus literal: %v", err)
	}
	return []byte(s)
}

// TestFuzzSeedCorpus keeps the committed seed corpus in sync with
// corpusSeeds and proves every seed decodes end-to-end: a corpus of streams
// the reader cannot even parse would seed the fuzzer with noise.
func TestFuzzSeedCorpus(t *testing.T) {
	seeds := corpusSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			if err := os.WriteFile(filepath.Join(corpusDir, name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, data) {
				t.Fatal("committed corpus entry diverges from corpusSeeds (run with -update-corpus)")
			}
			rd := NewReader(bytes.NewReader(data))
			records := 0
			for {
				rec, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("seed does not decode: %v", err)
				}
				if rec == nil {
					t.Fatal("Next returned nil record without error")
				}
				records++
			}
			if records == 0 {
				t.Fatal("seed decoded zero records")
			}
		})
	}
}
