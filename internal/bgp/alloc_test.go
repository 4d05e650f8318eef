package bgp

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sort"
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

// TestDecodeUpdateFlagInvariance holds the one UPDATE decoder to its own
// contract, since no second decoder is left to compare it with: under a
// base of flags 0 or DecodeAS2, every message decodes to deeply equal
// values, or fails with the same error, with Borrow, Intern or both added;
// on a fresh Scratch and on one reused across every message; and through
// DecodeUpdateIf accepting every prefix (which keeps nil for a message
// with no prefix at all). An owned decode (a fresh Scratch at the base
// flags) keeps its values when the input is overwritten.
func TestDecodeUpdateFlagInvariance(t *testing.T) {
	msgs := [][]byte{allocTestUpdate(t), as2VectorUpdate(t)}
	msgs = append(msgs, decodeUpdateSeeds(t)...)
	seeds := communityCorpusSeeds(t)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		msgs = append(msgs, seeds[name].data)
	}
	msgs = append(msgs, deferredFaultSeeds()...)
	all := func(netip.Prefix) bool { return true }
	var reused, reusedIf Scratch
	for i, msg := range msgs {
		for _, base := range []DecodeFlags{0, DecodeAS2} {
			owned := slices.Clone(msg)
			want, wantErr := new(Scratch).DecodeUpdate(owned, base)
			for j := range owned {
				owned[j] = 0xa5
			}
			var wantIf *Update
			if wantErr == nil && len(want.WithdrawnAll())+len(want.Announced()) > 0 {
				wantIf = want
			}
			for _, df := range []DecodeFlags{base, base | DecodeBorrow, base | DecodeIntern, base | DecodeBorrow | DecodeIntern} {
				for _, c := range []struct {
					name   string
					decode func() (*Update, error)
					want   *Update
				}{
					{"fresh", func() (*Update, error) { return new(Scratch).DecodeUpdate(msg, df) }, want},
					{"reused", func() (*Update, error) { return reused.DecodeUpdate(msg, df) }, want},
					{"DecodeUpdateIf", func() (*Update, error) { return reusedIf.DecodeUpdateIf(msg, df, all) }, wantIf},
				} {
					got, err := c.decode()
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, c.want) {
						t.Errorf("message %d, flags %b, %s: %+v, %v\nwant %+v, %v", i, df, c.name, got, err, c.want, wantErr)
					}
				}
			}
		}
	}
}

// TestEmptyCommunitiesDecodeEmpty pins a value no round trip sees: a
// COMMUNITIES attribute of length 0 decodes to an empty list, not to none,
// at every flag, on a fresh Scratch and on one whose storage holds an
// earlier message's communities.
func TestEmptyCommunitiesDecodeEmpty(t *testing.T) {
	seeds := communityCorpusSeeds(t)
	empty, full := seeds["seed-empty-attr"].data, seeds["seed-v4-communities"].data
	var reused Scratch
	for _, df := range []DecodeFlags{0, DecodeBorrow, DecodeIntern, DecodeBorrow | DecodeIntern} {
		if _, err := reused.DecodeUpdate(full, df); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Scratch{"fresh": new(Scratch), "reused": &reused} {
			u, err := s.DecodeUpdate(empty, df)
			if err != nil || u.Attrs.Communities == nil || len(u.Attrs.Communities) != 0 {
				t.Errorf("flags %b, %s: communities %#v, %v; want an empty non-nil list", df, name, u.Attrs.Communities, err)
			}
		}
	}
	if u, err := decodeUpdate(allocTestUpdate(t)); err != nil || u.Attrs.Communities == nil {
		t.Fatalf("a message with communities: %v, %v", u, err)
	}
	var pa PathAttributes
	if err := new(Scratch).DecodePathAttributes(&pa, &AttrStore{}, empty[HeaderLen+4:], 0); err != nil || pa.Communities == nil {
		t.Errorf("attribute block: communities %#v, %v; want an empty non-nil list", pa.Communities, err)
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

// TestMPPrefixArraysKept: an MP_REACH_NLRI or MP_UNREACH_NLRI of no
// prefix decodes to a nil list, yet the store keeps the backing array the
// last non-empty list grew, so a warm Scratch alternating a one-prefix
// message with an empty one allocates nothing.
func TestMPPrefixArraysKept(t *testing.T) {
	mp := func(prefixes []netip.Prefix) []byte {
		u := &Update{Attrs: PathAttributes{
			HasOrigin: true,
			ASPath:    NewASPath(64500, 64501),
			MPReach:   &MPReachNLRI{AFI: AFIIPv6, SAFI: SAFIUnicast, NextHop: netip.MustParseAddr("2001:db8::1"), NLRI: prefixes},
			MPUnreach: &MPUnreachNLRI{AFI: AFIIPv6, SAFI: SAFIUnicast, Withdrawn: prefixes},
		}}
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	one, none := mp([]netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48")}), mp(nil)
	var s Scratch
	pair := func() {
		if u, err := s.DecodeUpdate(one, DecodeBorrow|DecodeIntern); err != nil || len(u.Attrs.MPReach.NLRI) != 1 || len(u.Attrs.MPUnreach.Withdrawn) != 1 {
			t.Fatalf("one prefix: %+v, %v", u, err)
		}
		if u, err := s.DecodeUpdate(none, DecodeBorrow|DecodeIntern); err != nil || u.Attrs.MPReach.NLRI != nil || u.Attrs.MPUnreach.Withdrawn != nil {
			t.Fatalf("no prefix: %+v, %v; want nil lists", u, err)
		}
	}
	pair()
	if raceEnabled {
		return
	}
	if avg := testing.AllocsPerRun(200, pair); avg != 0 {
		t.Errorf("a warm Scratch allocates %v per one-prefix/no-prefix pair, want 0", avg)
	}
}

// TestInternIDs: an interned decode reports one id per distinct AS path
// and aggregator, the same id whether the front cache or the table served
// it, and 0 for an attribute the update does not carry or a decode
// without DecodeIntern.
func TestInternIDs(t *testing.T) {
	var s, other Scratch
	ids := func(s *Scratch, wire []byte, df DecodeFlags) [2]uint32 {
		t.Helper()
		if _, err := s.DecodeUpdate(wire, df); err != nil {
			t.Fatal(err)
		}
		p, a := s.InternIDs()
		return [2]uint32{p, a}
	}
	a, b := pathUpdate(t, 65001), pathUpdate(t, 65002)
	ida := ids(&s, a, DecodeIntern)
	idb := ids(&s, b, DecodeIntern)
	if ida[0] == 0 || ida[1] == 0 || ida[0] == idb[0] || ida[1] == idb[1] {
		t.Errorf("distinct paths and aggregators: ids %v and %v", ida, idb)
	}
	if got := ids(&s, a, DecodeIntern|DecodeBorrow); got != ida {
		t.Errorf("front-cache repeat: ids %v, want %v", got, ida)
	}
	if got := ids(&other, a, DecodeIntern); got != ida {
		t.Errorf("another Scratch (table hit): ids %v, want %v", got, ida)
	}
	if got := ids(&s, a, 0); got != [2]uint32{} {
		t.Errorf("decode without DecodeIntern: ids %v, want none", got)
	}
	withdraw, err := (&Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")}}).AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	ids(&s, a, DecodeIntern)
	if got := ids(&s, withdraw, DecodeIntern); got != [2]uint32{} {
		t.Errorf("a withdrawal after an announcement: ids %v, want none", got)
	}
}
