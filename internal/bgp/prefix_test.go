package bgp

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestPrefixRoundTripIPv4(t *testing.T) {
	cases := []string{"0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "192.0.2.128/25", "203.0.113.7/32"}
	for _, s := range cases {
		p := mustPrefix(t, s)
		b, err := AppendPrefix(nil, p)
		if err != nil {
			t.Fatalf("AppendPrefix(%s): %v", s, err)
		}
		got, n, err := DecodePrefix(b, AFIIPv4)
		if err != nil {
			t.Fatalf("DecodePrefix(%s): %v", s, err)
		}
		if n != len(b) {
			t.Errorf("%s: consumed %d of %d bytes", s, n, len(b))
		}
		if got != p {
			t.Errorf("%s: round-trip got %s", s, got)
		}
	}
}

func TestPrefixRoundTripIPv6(t *testing.T) {
	cases := []string{"::/0", "2a0d:3dc1::/32", "2a0d:3dc1:1851::/48", "2001:db8::/48", "2001:db8::1/128"}
	for _, s := range cases {
		p := mustPrefix(t, s)
		b, err := AppendPrefix(nil, p)
		if err != nil {
			t.Fatalf("AppendPrefix(%s): %v", s, err)
		}
		got, n, err := DecodePrefix(b, AFIIPv6)
		if err != nil {
			t.Fatalf("DecodePrefix(%s): %v", s, err)
		}
		if n != len(b) {
			t.Errorf("%s: consumed %d of %d bytes", s, n, len(b))
		}
		if got != p {
			t.Errorf("%s: round-trip got %s", s, got)
		}
	}
}

func TestPrefixEncodingIsMinimal(t *testing.T) {
	// A /48 must occupy exactly 1 + 6 bytes on the wire.
	b, err := AppendPrefix(nil, mustPrefix(t, "2a0d:3dc1:1851::/48"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 7 {
		t.Errorf("encoded /48 occupies %d bytes, want 7", len(b))
	}
	// A /0 is the single length byte.
	b, err = AppendPrefix(nil, mustPrefix(t, "0.0.0.0/0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 {
		t.Errorf("encoded /0 occupies %d bytes, want 1", len(b))
	}
}

func TestAppendPrefixMasksHostBits(t *testing.T) {
	p := netip.PrefixFrom(netip.MustParseAddr("192.0.2.255"), 24)
	b, err := AppendPrefix(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodePrefix(b, AFIIPv4)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustPrefix(t, "192.0.2.0/24"); got != want {
		t.Errorf("got %s, want masked %s", got, want)
	}
}

func TestDecodePrefixErrors(t *testing.T) {
	if _, _, err := DecodePrefix(nil, AFIIPv4); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("empty input: err = %v, want ErrBadPrefix", err)
	}
	if _, _, err := DecodePrefix([]byte{33, 1, 2, 3, 4, 5}, AFIIPv4); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("/33 v4: err = %v, want ErrBadPrefix", err)
	}
	if _, _, err := DecodePrefix([]byte{129}, AFIIPv6); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("/129 v6: err = %v, want ErrBadPrefix", err)
	}
	if _, _, err := DecodePrefix([]byte{24, 1}, AFIIPv4); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("truncated body: err = %v, want ErrBadPrefix", err)
	}
	if _, _, err := DecodePrefix([]byte{8, 10}, AFI(9)); !errors.Is(err, ErrBadAddrFamily) {
		t.Errorf("bad afi: err = %v, want ErrBadAddrFamily", err)
	}
}

func TestDecodePrefixesRejectsTrailingGarbage(t *testing.T) {
	b, err := AppendPrefix(nil, netip.MustParsePrefix("192.0.2.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, 200) // bogus length byte with no body possible
	if _, err := appendDecodedPrefixes(nil, b, AFIIPv4); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestPrefixQuickRoundTrip is a property test: any masked prefix encodes
// and decodes to itself.
func TestPrefixQuickRoundTrip(t *testing.T) {
	f := func(addr [16]byte, bitsRaw uint8, v4 bool) bool {
		var p netip.Prefix
		var afi AFI
		if v4 {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte(addr[:4])), int(bitsRaw)%33)
			afi = AFIIPv4
		} else {
			p = netip.PrefixFrom(netip.AddrFrom16(addr), int(bitsRaw)%129)
			afi = AFIIPv6
		}
		p = p.Masked()
		b, err := AppendPrefix(nil, p)
		if err != nil {
			return false
		}
		got, n, err := DecodePrefix(b, afi)
		return err == nil && n == len(b) && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestPrefixAFI(t *testing.T) {
	if got := PrefixAFI(netip.MustParsePrefix("10.0.0.0/8")); got != AFIIPv4 {
		t.Errorf("v4 prefix reported %v", got)
	}
	if got := PrefixAFI(netip.MustParsePrefix("2a0d:3dc1::/32")); got != AFIIPv6 {
		t.Errorf("v6 prefix reported %v", got)
	}
}

func TestDecodePrefixesMany(t *testing.T) {
	want := []netip.Prefix{
		mustPrefix(t, "10.0.0.0/8"),
		mustPrefix(t, "192.0.2.0/24"),
		mustPrefix(t, "203.0.113.0/25"),
	}
	b, err := AppendPrefixes(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendDecodedPrefixes(nil, b, AFIIPv4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
