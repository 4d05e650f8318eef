package bgp

import (
	"net/netip"
	"testing"
)

// FuzzDecodeUpdate exercises the full UPDATE decode path with mutated
// wire data. Run with `go test -fuzz FuzzDecodeUpdate ./internal/bgp`;
// the seed corpus also runs as a normal test.
func FuzzDecodeUpdate(f *testing.F) {
	for _, seed := range decodeUpdateSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := decodeUpdate(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without panicking, and the
		// re-encoded form must decode to an update announcing and
		// withdrawing the same prefixes.
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			// Some decodable inputs are not re-encodable (e.g. an
			// oversized reconstruction); that is fine as long as it is
			// an error, not a panic.
			return
		}
		u2, err := decodeUpdate(wire)
		if err != nil {
			t.Fatalf("re-encoded update does not decode: %v", err)
		}
		if len(u2.Announced()) != len(u.Announced()) {
			t.Fatalf("announced count changed: %d -> %d", len(u.Announced()), len(u2.Announced()))
		}
		if len(u2.WithdrawnAll()) != len(u.WithdrawnAll()) {
			t.Fatalf("withdrawn count changed: %d -> %d", len(u.WithdrawnAll()), len(u2.WithdrawnAll()))
		}
	})
}

// decodeUpdateSeeds are FuzzDecodeUpdate's seeds, shared with
// FuzzDeferredDecode: real encodings of representative messages plus the
// framing edge cases.
func decodeUpdateSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	v6 := &Update{
		Attrs: PathAttributes{
			HasOrigin:  true,
			ASPath:     NewASPath(4637, 1299, 25091, 8298, 210312),
			Aggregator: &Aggregator{ASN: 210312, Addr: netip.MustParseAddr("10.19.29.192")},
			MPReach: &MPReachNLRI{
				AFI: AFIIPv6, SAFI: SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
			},
		},
	}
	if wire, err := v6.AppendWireFormat(nil); err == nil {
		seeds = append(seeds, wire)
	}
	v4 := &Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
		Attrs: PathAttributes{
			HasOrigin: true,
			ASPath:    NewASPath(12654),
			NextHop:   netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("93.175.147.0/24")},
	}
	if wire, err := v4.AppendWireFormat(nil); err == nil {
		seeds = append(seeds, wire)
	}
	return append(seeds, NewKeepalive(), []byte{}, make([]byte, HeaderLen))
}

// FuzzDecodePrefix checks the NLRI prefix decoder against arbitrary bytes
// for both families.
func FuzzDecodePrefix(f *testing.F) {
	f.Add([]byte{24, 93, 175, 146}, true)
	f.Add([]byte{48, 0x2a, 0x0d, 0x3d, 0xc1, 0x18, 0x51}, false)
	f.Add([]byte{0}, true)
	f.Fuzz(func(t *testing.T, data []byte, v4 bool) {
		afi := AFIIPv6
		if v4 {
			afi = AFIIPv4
		}
		p, n, err := DecodePrefix(data, afi)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round trip: the decoded prefix re-encodes into the same bytes
		// (canonical form: the decoder zero-extends, the encoder masks).
		enc, err := AppendPrefix(nil, p)
		if err != nil {
			t.Fatalf("decoded prefix does not encode: %v", err)
		}
		dec2, _, err := DecodePrefix(enc, afi)
		if err != nil || dec2 != p {
			t.Fatalf("canonical round trip failed: %v %v", dec2, err)
		}
	})
}
