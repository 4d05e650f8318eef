package bgp

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzCommunities is the fuzz target for the COMMUNITIES attribute: an
// owned decode (a fresh Scratch at flags 0) and the hot path's decode (one
// Scratch reused across every input, at Borrow|Intern) must agree on the
// decoded community list, nil or not, for every input (the reused
// Scratch keeps its backing array across calls, so stale-state bugs
// surface here), and whatever decodes must survive an encode/decode round
// trip unchanged.
// Run with `go test -fuzz FuzzCommunities ./internal/bgp`; the committed
// corpus under testdata/fuzz/FuzzCommunities is kept in sync by
// TestFuzzSeedCorpus.
func FuzzCommunities(f *testing.F) {
	seeds := communityCorpusSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names) // seed#N names the same input on every run
	for _, name := range names {
		f.Add(seeds[name].data)
	}
	// One scratch for the whole run: reuse across inputs is the production
	// access pattern, and exactly where a missed reset would leak one
	// message's communities into the next.
	var scratch Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := decodeUpdate(data)
		su, serr := scratch.DecodeUpdate(data, DecodeBorrow|DecodeIntern)
		if (err == nil) != (serr == nil) {
			t.Fatalf("owned and reused decode disagree: %v vs %v", err, serr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(u.Attrs.Communities, su.Attrs.Communities) || (u.Attrs.Communities == nil) != (su.Attrs.Communities == nil) {
			t.Fatalf("community lists diverge:\nowned:  %#v\nreused: %#v",
				u.Attrs.Communities, su.Attrs.Communities)
		}
		for _, c := range u.Attrs.Communities {
			if s := c.String(); strings.Count(s, ":") != 1 {
				t.Fatalf("community %#x renders as %q", uint32(c), s)
			}
			if NewCommunity(uint16(uint32(c)>>16), uint16(uint32(c))) != c {
				t.Fatalf("community %#x does not survive a split/repack", uint32(c))
			}
		}
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			// Not everything decodable re-encodes (see FuzzDecodeUpdate);
			// an error is fine, a panic is not.
			return
		}
		u2, err := decodeUpdate(wire)
		if err != nil {
			t.Fatalf("re-encoded update does not decode: %v", err)
		}
		if !slices.Equal(u2.Attrs.Communities, u.Attrs.Communities) {
			t.Fatalf("communities changed across round trip: %v -> %v",
				u.Attrs.Communities, u2.Attrs.Communities)
		}
	})
}
