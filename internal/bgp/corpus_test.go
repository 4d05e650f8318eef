package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Regenerate the committed seed corpus with:
//
//	go test ./internal/bgp -run TestFuzzSeedCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the seed corpus under testdata/fuzz/FuzzCommunities")

const corpusDir = "testdata/fuzz/FuzzCommunities"

// communitySeed is one committed FuzzCommunities seed plus its expected
// decode outcome, so the corpus check proves the seeds land where they
// are aimed: deep inside the COMMUNITIES handling, not bounced by framing.
type communitySeed struct {
	data    []byte
	wantErr bool // decode must fail (with ErrBadAttribute)
	comms   int  // expected community count when decode succeeds
}

// communityCorpusSeeds builds the committed FuzzCommunities seeds:
// well-formed updates carrying every community shape the codebase
// produces (plain lists, well-known values, storm-style churn with
// duplicates and boundary values) plus hand-framed edge cases the encoder
// never emits (a zero-length attribute, a truncated one).
func communityCorpusSeeds(t testing.TB) map[string]communitySeed {
	t.Helper()
	encode := func(u *Update) []byte {
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	// frame wraps raw path attributes in a minimal UPDATE (no withdrawn
	// routes, no NLRI), for attribute encodings AppendWireFormat refuses
	// to produce.
	frame := func(attrs []byte) []byte {
		body := binary.BigEndian.AppendUint16(nil, 0)
		body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
		body = append(body, attrs...)
		wire := appendHeader(nil, uint16(HeaderLen+len(body)), MsgUpdate)
		return append(wire, body...)
	}

	v4 := &Update{
		Attrs: PathAttributes{
			HasOrigin: true,
			ASPath:    NewASPath(12654, 25091),
			NextHop:   netip.MustParseAddr("192.0.2.1"),
			Communities: []Community{
				NewCommunity(64500, 100), NewCommunity(286, 3), NewCommunity(65535, 65535),
			},
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
	}

	wellKnown := &Update{
		Attrs: PathAttributes{
			HasOrigin: true,
			ASPath:    NewASPath(4637, 1299, 210312),
			// NO_EXPORT, NO_ADVERTISE, and the all-zero value.
			Communities: []Community{0xFFFFFF01, 0xFFFFFF02, 0},
			MPReach: &MPReachNLRI{
				AFI: AFIIPv6, SAFI: SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
			},
		},
	}

	// Storm-style churn: a long list with duplicates and both boundary
	// values, the shape the community-storm generator floods with.
	churn := make([]Community, 0, 32)
	for i := 0; i < 30; i++ {
		churn = append(churn, NewCommunity(64500, uint16(i%5)))
	}
	churn = append(churn, 0, 0xFFFFFFFF)
	storm := &Update{
		Attrs: PathAttributes{
			HasOrigin:   true,
			ASPath:      NewASPath(12654, 200),
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			Communities: churn,
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}

	empty := frame(appendAttrHeader(nil, FlagOptional|FlagTransitive, AttrCommunities, 0))
	odd := frame(append(appendAttrHeader(nil, FlagOptional|FlagTransitive, AttrCommunities, 3), 0xfc, 0x00, 0x01))

	return map[string]communitySeed{
		"seed-v4-communities": {data: encode(v4), comms: 3},
		"seed-v6-wellknown":   {data: encode(wellKnown), comms: 3},
		"seed-storm-churn":    {data: encode(storm), comms: 32},
		"seed-empty-attr":     {data: empty, comms: 0},
		"seed-odd-length":     {data: odd, wantErr: true},
	}
}

// corpusEntry renders data in the `go test fuzz v1` single-[]byte format
// FuzzCommunities consumes.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// parseCorpusEntry is the inverse, for validating committed files.
func parseCorpusEntry(t testing.TB, raw []byte) []byte {
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
// communityCorpusSeeds and proves each seed's decode outcome — owned (a
// fresh Scratch at flags 0) and hot-path (Borrow|Intern) — matches the
// shape it was built to exercise.
func TestFuzzSeedCorpus(t *testing.T) {
	seeds := communityCorpusSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, seed := range seeds {
			if err := os.WriteFile(filepath.Join(corpusDir, name), corpusEntry(seed.data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, seed := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, seed.data) {
				t.Fatal("committed corpus entry diverges from communityCorpusSeeds (run with -update-corpus)")
			}
			var scratch Scratch
			u, err := decodeUpdate(seed.data)
			su, serr := scratch.DecodeUpdate(seed.data, DecodeBorrow|DecodeIntern)
			if seed.wantErr {
				if !errors.Is(err, ErrBadAttribute) || !errors.Is(serr, ErrBadAttribute) {
					t.Fatalf("want ErrBadAttribute from both decodes, got %v / %v", err, serr)
				}
				return
			}
			if err != nil || serr != nil {
				t.Fatalf("seed does not decode: %v / %v", err, serr)
			}
			if len(u.Attrs.Communities) != seed.comms || len(su.Attrs.Communities) != seed.comms {
				t.Fatalf("want %d communities, got %d (owned) / %d (hot path)",
					seed.comms, len(u.Attrs.Communities), len(su.Attrs.Communities))
			}
		})
	}
}
