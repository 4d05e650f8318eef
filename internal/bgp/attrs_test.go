package bgp

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPathAttributesRoundTripAll(t *testing.T) {
	pa := PathAttributes{
		HasOrigin:       true,
		Origin:          OriginEGP,
		ASPath:          NewASPath(4637, 1299, 25091, 8298, 210312),
		NextHop:         netip.MustParseAddr("192.0.2.1"),
		HasMED:          true,
		MED:             1234,
		HasLocalPref:    true,
		LocalPref:       250,
		AtomicAggregate: true,
		Aggregator:      &Aggregator{ASN: 210312, Addr: netip.MustParseAddr("10.19.29.192")},
		Communities:     []Community{NewCommunity(8298, 1), NewCommunity(25091, 2)},
		MPReach: &MPReachNLRI{
			AFI: AFIIPv6, SAFI: SAFIUnicast,
			NextHop: netip.MustParseAddr("2001:db8::1"),
			NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
		},
		MPUnreach: &MPUnreachNLRI{
			AFI: AFIIPv6, SAFI: SAFIUnicast,
			Withdrawn: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:2233::/48")},
		},
		Unknown: []RawAttr{{Flags: FlagOptional | FlagTransitive, Type: 32, Value: []byte{1, 2, 3}}},
	}
	wire, err := pa.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePathAttributes(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pa) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, pa)
	}
}

func TestDecodePathAttributesMalformed(t *testing.T) {
	cases := map[string][]byte{
		"truncated header":      {0x40},
		"short value":           {0x40, AttrOrigin, 5, 0},
		"origin wrong len":      {0x40, AttrOrigin, 2, 0, 0},
		"nexthop wrong len":     {0x40, AttrNextHop, 3, 1, 2, 3},
		"med wrong len":         {0x80, AttrMED, 2, 0, 1},
		"localpref wrong len":   {0x40, AttrLocalPref, 1, 9},
		"atomic aggregate len":  {0x40, AttrAtomicAggregate, 1, 0},
		"aggregator wrong len":  {0xc0, AttrAggregator, 6, 0, 0, 0, 1, 10, 0},
		"communities wrong len": {0xc0, AttrCommunities, 3, 0, 0, 1},
		"mp_reach too short":    {0x80, AttrMPReachNLRI, 2, 0, 2},
		"mp_reach bad nh len":   {0x80, AttrMPReachNLRI, 6, 0, 2, 1, 3, 0, 0},
		"mp_unreach too short":  {0x80, AttrMPUnreachNLRI, 2, 0, 2},
		"truncated ext length":  {0x90, AttrASPath, 1},
	}
	for name, wire := range cases {
		if _, err := decodePathAttributes(wire); err == nil {
			t.Errorf("%s: malformed attribute accepted", name)
		}
	}
}

// TestDecodeNeverPanics: arbitrary bytes must produce an error or a
// result, never a panic — the property a codec facing untrusted archive
// data must hold.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodeUpdate panicked on %x: %v", data, r)
				}
			}()
			_, _ = decodeUpdate(data)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodePathAttributes panicked on %x: %v", data, r)
				}
			}()
			_, _ = decodePathAttributes(data)
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodeASPath panicked on %x: %v", data, r)
				}
			}()
			_, _ = DecodeASPath(data)
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// TestDecodeValidHeaderRandomBody: a valid header with random body bytes
// must also never panic.
func TestDecodeValidHeaderRandomBody(t *testing.T) {
	f := func(body []byte) bool {
		if len(body) > MaxMessageLen-HeaderLen {
			body = body[:MaxMessageLen-HeaderLen]
		}
		msg := appendHeader(nil, uint16(HeaderLen+len(body)), MsgUpdate)
		msg = append(msg, body...)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked on %x: %v", body, r)
			}
		}()
		_, _ = decodeUpdate(msg)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || OriginEGP.String() != "EGP" || OriginIncomplete.String() != "INCOMPLETE" {
		t.Error("origin strings wrong")
	}
	if Origin(9).String() != "Origin(9)" {
		t.Error("unknown origin string wrong")
	}
}

func TestMessageTypeString(t *testing.T) {
	cases := map[MessageType]string{
		MsgOpen: "OPEN", MsgUpdate: "UPDATE", MsgNotification: "NOTIFICATION",
		MsgKeepalive: "KEEPALIVE", MessageType(9): "UNKNOWN(9)",
	}
	for mt, want := range cases {
		if mt.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(mt), mt.String(), want)
		}
	}
}

func TestAFIString(t *testing.T) {
	if AFIIPv4.String() != "IPv4" || AFIIPv6.String() != "IPv6" || AFI(7).String() != "AFI(7)" {
		t.Error("AFI strings wrong")
	}
}

func TestASNString(t *testing.T) {
	if ASN(210312).String() != "AS210312" {
		t.Errorf("ASN string = %q", ASN(210312).String())
	}
}
