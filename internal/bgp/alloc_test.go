package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// allocTestUpdate builds a representative UPDATE exercising every hot
// attribute: AS path, aggregator, communities, MP_REACH, MP_UNREACH, an
// unknown attribute, plus top-level NLRI and withdrawals.
func allocTestUpdate(t *testing.T) []byte {
	t.Helper()
	u := &Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("93.175.146.0/24"),
			netip.MustParsePrefix("93.175.147.0/24"),
		},
		Attrs: PathAttributes{
			HasOrigin:   true,
			Origin:      OriginIGP,
			ASPath:      ASPath{Segments: []PathSegment{{Type: ASSequence, ASNs: []ASN{64500, 64501, 64502}}}},
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			Communities: []Community{Community(64500<<16 | 100)},
			Aggregator:  &Aggregator{ASN: 64502, Addr: netip.MustParseAddr("192.0.2.9")},
			MPReach: &MPReachNLRI{
				AFI: AFIIPv6, SAFI: SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48")},
			},
			MPUnreach: &MPUnreachNLRI{
				AFI: AFIIPv6, SAFI: SAFIUnicast,
				Withdrawn: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1300::/48")},
			},
			Unknown: []RawAttr{{Flags: FlagOptional | FlagTransitive, Type: 32, Value: []byte{1, 2, 3, 4}}},
		},
	}
	wire, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestScratchDecodeMatchesDecodeUpdate pins the scratch decoder to the
// allocating one by round-tripping both results back to wire form.
func TestScratchDecodeMatchesDecodeUpdate(t *testing.T) {
	wire := allocTestUpdate(t)
	want, err := DecodeUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for _, df := range []DecodeFlags{0, DecodeBorrow, DecodeIntern, DecodeBorrow | DecodeIntern} {
		got, err := s.DecodeUpdate(wire, df)
		if err != nil {
			t.Fatalf("flags %b: %v", df, err)
		}
		wantWire, err := want.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		gotWire, err := got.AppendWireFormat(nil)
		if err != nil {
			t.Fatalf("flags %b: re-encode: %v", df, err)
		}
		if !bytes.Equal(gotWire, wantWire) {
			t.Errorf("flags %b: scratch decode diverges from DecodeUpdate", df)
		}
	}
}

// TestScratchDecodeUpdateAllocs is the allocation regression fence for the
// hot decode path: once the scratch is warm and the attributes are
// interned, decoding a repeated UPDATE must not allocate at all.
func TestScratchDecodeUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	wire := allocTestUpdate(t)
	var s Scratch
	if _, err := s.DecodeUpdate(wire, DecodeBorrow|DecodeIntern); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := s.DecodeUpdate(wire, DecodeBorrow|DecodeIntern); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm scratch decode allocates %v allocs/op, want 0", avg)
	}
}

// pathUpdate is an announcement of one prefix over a 3-AS path ending in
// origin: distinct origins are distinct AS_PATH values.
func pathUpdate(t *testing.T, origin ASN) []byte {
	t.Helper()
	u := &Update{
		NLRI: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
		Attrs: PathAttributes{
			HasOrigin:  true,
			ASPath:     NewASPath(64500, 64501, origin),
			NextHop:    netip.MustParseAddr("192.0.2.1"),
			Aggregator: &Aggregator{ASN: origin, Addr: netip.MustParseAddr("192.0.2.9")},
		},
	}
	wire, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestFrontCacheBounded: a Scratch's front cache serves a repeated path
// and aggregator without touching the intern tables (their counters stand
// still while InternStats' hits advance), allocates nothing doing so, and
// stays the same fixed block after ten times its capacity in distinct
// paths — it replaces, it never grows.
func TestFrontCacheBounded(t *testing.T) {
	var s Scratch
	wire := pathUpdate(t, 65000)
	first, err := s.DecodeUpdate(wire, DecodeIntern)
	if err != nil {
		t.Fatal(err)
	}
	path, agg := first.Attrs.ASPath, first.Attrs.Aggregator
	cache := s.front

	tableBefore := pathTable.Stats().Hits + aggTable.Stats().Hits
	pathBefore, aggBefore := InternStats()
	const repeats = 100
	for i := 0; i < repeats; i++ {
		u, err := s.DecodeUpdate(wire, DecodeIntern)
		if err != nil {
			t.Fatal(err)
		}
		if &u.Attrs.ASPath.Segments[0] != &path.Segments[0] || u.Attrs.Aggregator != agg {
			t.Fatal("front cache returned a value other than the interned one")
		}
	}
	if got := pathTable.Stats().Hits + aggTable.Stats().Hits; got != tableBefore {
		t.Errorf("repeats reached the intern tables: table hits %d -> %d", tableBefore, got)
	}
	pathAfter, aggAfter := InternStats()
	if pathAfter.Hits-pathBefore.Hits != repeats || aggAfter.Hits-aggBefore.Hits != repeats {
		t.Errorf("InternStats hits moved by %d / %d, want %d each", pathAfter.Hits-pathBefore.Hits, aggAfter.Hits-aggBefore.Hits, repeats)
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := s.DecodeUpdate(wire, DecodeIntern); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("front-cache hit allocates %v allocs/op, want 0", avg)
		}
	}

	for i := 0; i < 10*frontSlots; i++ {
		if _, err := s.DecodeUpdate(pathUpdate(t, ASN(70000+i)), DecodeIntern); err != nil {
			t.Fatal(err)
		}
	}
	if s.front != cache {
		t.Error("front cache was reallocated")
	}
	used := 0
	for i := range s.front.paths.slots {
		if s.front.paths.slots[i].n > 0 {
			used++
		}
	}
	if used > frontSlots || used < frontSlots/2 {
		t.Errorf("%d of %d path slots in use after %d distinct paths", used, frontSlots, 10*frontSlots)
	}
	// The evicted first path still resolves to its interned value.
	u, err := s.DecodeUpdate(wire, DecodeIntern)
	if err != nil || &u.Attrs.ASPath.Segments[0] != &path.Segments[0] {
		t.Errorf("re-decode after eviction: %v, same interned path = %v", err, err == nil && &u.Attrs.ASPath.Segments[0] == &path.Segments[0])
	}
}
