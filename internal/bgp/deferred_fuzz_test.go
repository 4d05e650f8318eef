package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDeferredDecode holds Scratch.DecodeUpdateIf to DecodeUpdate at the
// same flags: the same accept/reject outcome, the same error string, an
// update kept exactly when the predicate accepts one of its prefixes, and
// a kept update deeply equal to DecodeUpdate's. sel picks the decode flags
// (bits 0-2: Borrow, Intern and AS2, so the RFC 6793 merge of a two-octet
// session's AS_PATH and AGGREGATOR runs under the fuzzer too) and the
// predicate: bit 7 wants every prefix, bit 6 the prefixes of even length,
// neither none. Run with
// `go test ./internal/bgp -run NONE -fuzz FuzzDeferredDecode`.
func FuzzDeferredDecode(f *testing.F) {
	var seeds [][]byte
	seeds = append(seeds, decodeUpdateSeeds(f)...)
	entries, err := os.ReadDir(corpusDir) // the committed FuzzCommunities corpus, in name order
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, parseCorpusEntry(f, raw))
	}
	seeds = append(seeds, deferredFaultSeeds()...)
	for _, seed := range seeds {
		for _, sel := range []uint8{0, 0x80 | 3, 0x40 | 1} {
			f.Add(seed, sel)
		}
	}
	as2 := uint8(DecodeAS2)
	for _, sel := range []uint8{as2, 0x80 | as2 | 3, 0x40 | as2 | 1} {
		f.Add(as2VectorUpdate(f), sel)
	}
	// A scratch held across inputs, as the decode path holds one, against
	// a reference scratch fed the same inputs: stale state left by an
	// update that was not kept must not leak into the next. A fresh scratch
	// per input is held to a fresh scratch's DecodeUpdate.
	var long, longRef Scratch
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		df := DecodeFlags(sel) & (DecodeBorrow | DecodeIntern | DecodeAS2)
		want := func(p netip.Prefix) bool { return sel&0x80 != 0 || sel&0x40 != 0 && p.Bits()%2 == 0 }
		u, err := new(Scratch).DecodeUpdate(data, df)
		ref, rerr := longRef.DecodeUpdate(data, df)
		if fmt.Sprint(rerr) != fmt.Sprint(err) || !reflect.DeepEqual(ref, u) {
			t.Fatalf("reused and fresh decode disagree:\n%+v, %v\n%+v, %v", ref, rerr, u, err)
		}
		keep := false
		if err == nil {
			for _, p := range append(u.WithdrawnAll(), u.Announced()...) {
				keep = keep || want(p)
			}
		}
		var fresh Scratch
		for _, c := range []struct {
			s    *Scratch
			want *Update
		}{{&fresh, u}, {&long, ref}} {
			got, gerr := c.s.DecodeUpdateIf(data, df, want)
			switch {
			case err != nil:
				if gerr == nil || gerr.Error() != err.Error() {
					t.Fatalf("DecodeUpdateIf error %v, want DecodeUpdate's %v", gerr, err)
				}
			case gerr != nil:
				t.Fatalf("DecodeUpdateIf fails (%v) where DecodeUpdate decodes", gerr)
			case !keep && got != nil:
				t.Fatalf("update kept although no prefix is wanted: %+v", got)
			case keep && got == nil:
				t.Fatal("update with a wanted prefix not kept")
			case keep && !reflect.DeepEqual(got, c.want):
				t.Fatalf("kept update diverges from DecodeUpdate's:\n got %+v\nwant %+v", got, c.want)
			}
		}
	})
}

// deferredFaultSeeds are UPDATEs carrying one malformed deferred attribute
// (or a malformed deferred attribute ahead of a malformed eager one), each
// also announcing a well-formed IPv4 prefix, so a predicate that rejects it
// sends the fault down the validate-only path.
func deferredFaultSeeds() [][]byte {
	origin := []byte{FlagTransitive, AttrOrigin, 1, 0}
	path := []byte{FlagTransitive, AttrASPath, 6, byte(ASSequence), 1, 0, 0, 0xfb, 0xf4}
	badPath := []byte{FlagTransitive, AttrASPath, 6, 9, 1, 0, 0, 0xfb, 0xf4}
	nextHop := []byte{FlagTransitive, AttrNextHop, 4, 192, 0, 2, 1}
	badComms := []byte{FlagOptional | FlagTransitive, AttrCommunities, 5, 0, 0, 0, 1, 2}
	badAgg := []byte{FlagOptional | FlagTransitive, AttrAggregator, 6, 0, 0, 0xfb, 0xf4, 10, 0}
	badReach := []byte{FlagOptional, AttrMPReachNLRI, 17, 0, 2, 1, 5, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 48, 0x2a, 0x0e, 0xbb, 0, 0, 0}
	nlri := []byte{24, 198, 51, 100}
	var seeds [][]byte
	for _, attrs := range [][][]byte{
		{origin, badPath, nextHop},
		{origin, path, nextHop, badComms},
		{origin, path, nextHop, badAgg},
		{origin, path, badReach},
		{origin, badPath, badReach},
	} {
		seeds = append(seeds, frameUpdate(nil, attrs, nlri))
	}
	return seeds
}

// frameUpdate frames raw withdrawn routes, path attributes and NLRI as one
// UPDATE message, for encodings AppendWireFormat refuses to produce.
func frameUpdate(withdrawn []byte, attrs [][]byte, nlri []byte) []byte {
	body := binary.BigEndian.AppendUint16(nil, uint16(len(withdrawn)))
	body = append(body, withdrawn...)
	n := 0
	for _, a := range attrs {
		n += len(a)
	}
	body = binary.BigEndian.AppendUint16(body, uint16(n))
	for _, a := range attrs {
		body = append(body, a...)
	}
	body = append(body, nlri...)
	return append(appendHeader(nil, uint16(HeaderLen+len(body)), MsgUpdate), body...)
}
