package bgp

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"
)

// decodeUpdate is an owned decode of one UPDATE message: a fresh Scratch
// at flags 0, whose values the caller may keep.
func decodeUpdate(b []byte) (*Update, error) {
	return new(Scratch).DecodeUpdate(b, 0)
}

// decodePathAttributes is an owned decode of one path-attribute block.
func decodePathAttributes(b []byte) (PathAttributes, error) {
	var pa PathAttributes
	err := new(Scratch).DecodePathAttributes(&pa, &AttrStore{}, b, 0)
	return pa, err
}

func v6Update(t *testing.T) *Update {
	t.Helper()
	return &Update{
		Attrs: PathAttributes{
			HasOrigin: true,
			Origin:    OriginIGP,
			ASPath:    NewASPath(4637, 1299, 25091, 8298, 210312),
			Aggregator: &Aggregator{
				ASN:  210312,
				Addr: netip.MustParseAddr("10.19.29.192"),
			},
			Communities: []Community{NewCommunity(8298, 100)},
			MPReach: &MPReachNLRI{
				AFI:     AFIIPv6,
				SAFI:    SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
			},
		},
	}
}

func TestUpdateRoundTripIPv6Announce(t *testing.T) {
	u := v6Update(t)
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attrs.ASPath.Equal(u.Attrs.ASPath) {
		t.Errorf("AS path: got %s, want %s", got.Attrs.ASPath, u.Attrs.ASPath)
	}
	if got.Attrs.Aggregator == nil || *got.Attrs.Aggregator != *u.Attrs.Aggregator {
		t.Errorf("aggregator: got %+v, want %+v", got.Attrs.Aggregator, u.Attrs.Aggregator)
	}
	if !reflect.DeepEqual(got.Attrs.Communities, u.Attrs.Communities) {
		t.Errorf("communities: got %v", got.Attrs.Communities)
	}
	if got.Attrs.MPReach == nil {
		t.Fatal("MP_REACH_NLRI missing after round trip")
	}
	if got.Attrs.MPReach.NextHop != u.Attrs.MPReach.NextHop {
		t.Errorf("next hop: got %s", got.Attrs.MPReach.NextHop)
	}
	if !reflect.DeepEqual(got.Attrs.MPReach.NLRI, u.Attrs.MPReach.NLRI) {
		t.Errorf("NLRI: got %v", got.Attrs.MPReach.NLRI)
	}
	if ann := got.Announced(); len(ann) != 1 || ann[0] != u.Attrs.MPReach.NLRI[0] {
		t.Errorf("Announced() = %v", ann)
	}
}

func TestUpdateRoundTripIPv6Withdraw(t *testing.T) {
	u := &Update{
		Attrs: PathAttributes{
			MPUnreach: &MPUnreachNLRI{
				AFI:       AFIIPv6,
				SAFI:      SAFIUnicast,
				Withdrawn: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
			},
		},
	}
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	wd := got.WithdrawnAll()
	if len(wd) != 1 || wd[0] != u.Attrs.MPUnreach.Withdrawn[0] {
		t.Errorf("WithdrawnAll() = %v", wd)
	}
	if len(got.Announced()) != 0 {
		t.Errorf("withdraw-only update announced %v", got.Announced())
	}
}

func TestUpdateRoundTripIPv4(t *testing.T) {
	u := &Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
		Attrs: PathAttributes{
			HasOrigin:       true,
			Origin:          OriginIncomplete,
			ASPath:          NewASPath(12654, 210312),
			NextHop:         netip.MustParseAddr("192.0.2.1"),
			HasMED:          true,
			MED:             50,
			HasLocalPref:    true,
			LocalPref:       120,
			AtomicAggregate: true,
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
	}
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
		t.Errorf("withdrawn: got %v", got.Withdrawn)
	}
	if !reflect.DeepEqual(got.NLRI, u.NLRI) {
		t.Errorf("nlri: got %v", got.NLRI)
	}
	if got.Attrs.NextHop != u.Attrs.NextHop {
		t.Errorf("next hop: got %v", got.Attrs.NextHop)
	}
	if !got.Attrs.HasMED || got.Attrs.MED != 50 {
		t.Errorf("MED: got %v/%v", got.Attrs.HasMED, got.Attrs.MED)
	}
	if !got.Attrs.HasLocalPref || got.Attrs.LocalPref != 120 {
		t.Errorf("LocalPref: got %v/%v", got.Attrs.HasLocalPref, got.Attrs.LocalPref)
	}
	if !got.Attrs.AtomicAggregate {
		t.Error("ATOMIC_AGGREGATE lost")
	}
}

func TestUpdateUnknownAttrRoundTrip(t *testing.T) {
	u := &Update{
		Attrs: PathAttributes{
			Unknown: []RawAttr{{Flags: FlagOptional | FlagTransitive, Type: 32, Value: []byte{0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 3}}},
		},
	}
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Attrs.Unknown, u.Attrs.Unknown) {
		t.Errorf("unknown attrs: got %+v", got.Attrs.Unknown)
	}
}

func TestUpdateExtendedLengthAttribute(t *testing.T) {
	// Build an AS path long enough that the attribute needs the extended
	// length encoding (> 255 bytes of value).
	asns := make([]ASN, 120) // 2 + 480 bytes > 255
	for i := range asns {
		asns[i] = ASN(64500 + i)
	}
	u := &Update{Attrs: PathAttributes{ASPath: NewASPath(asns...)}}
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attrs.ASPath.Equal(u.Attrs.ASPath) {
		t.Error("extended-length AS_PATH round trip failed")
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, _, err := DecodeHeader(make([]byte, 5)); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short header: %v", err)
	}
	b := NewKeepalive()
	b[0] = 0 // corrupt marker
	if _, _, err := DecodeHeader(b); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker: %v", err)
	}
	b = NewKeepalive()
	b[16] = 0xff // absurd length
	b[17] = 0xff
	if _, _, err := DecodeHeader(b); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}
}

func TestDecodeUpdateRejectsNonUpdate(t *testing.T) {
	if _, err := decodeUpdate(NewKeepalive()); !errors.Is(err, ErrUnknownType) {
		t.Errorf("keepalive accepted as update: %v", err)
	}
}

func TestDecodeUpdateTruncated(t *testing.T) {
	u := v6Update(t)
	b, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeUpdate(b[:len(b)-3]); err == nil {
		t.Error("truncated update accepted")
	}
}

func TestUpdateRejectsV6TopLevel(t *testing.T) {
	u := &Update{NLRI: []netip.Prefix{netip.MustParsePrefix("2001:db8::/48")}}
	if _, err := u.AppendWireFormat(nil); err == nil {
		t.Error("IPv6 prefix accepted in top-level NLRI")
	}
	u = &Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("2001:db8::/48")}}
	if _, err := u.AppendWireFormat(nil); err == nil {
		t.Error("IPv6 prefix accepted in top-level withdrawn routes")
	}
}

func TestKeepaliveHeader(t *testing.T) {
	b := NewKeepalive()
	length, typ, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if length != HeaderLen || typ != MsgKeepalive {
		t.Errorf("got length=%d type=%v", length, typ)
	}
}

func TestCommunityString(t *testing.T) {
	if got := NewCommunity(8298, 100).String(); got != "8298:100" {
		t.Errorf("community = %q", got)
	}
}

func TestMPReach32ByteNextHop(t *testing.T) {
	// Hand-encode an MP_REACH value with global + link-local next hop and
	// verify the decoder keeps the global address.
	global := netip.MustParseAddr("2001:db8::1")
	ll := netip.MustParseAddr("fe80::1")
	val := []byte{0, 2, 1, 32}
	g := global.As16()
	l := ll.As16()
	val = append(val, g[:]...)
	val = append(val, l[:]...)
	val = append(val, 0) // reserved
	p, _ := AppendPrefix(nil, netip.MustParsePrefix("2a0d:3dc1::/32"))
	val = append(val, p...)
	m := &MPReachNLRI{}
	if err := decodeMPReachInto(m, val); err != nil {
		t.Fatal(err)
	}
	if m.NextHop != global {
		t.Errorf("next hop = %s, want %s", m.NextHop, global)
	}
}
