package mrt

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"zombiescope/internal/bgp"
)

// TestReaderNeverPanics: arbitrary bytes fed to the reader must produce
// records, errors, or EOF — never a panic.
func TestReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("reader panicked on %x: %v", data, r)
			}
		}()
		_, _ = readAll(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// TestReaderValidHeaderRandomBody: a well-formed MRT header followed by
// random body bytes of the declared length must never panic either.
func TestReaderValidHeaderRandomBody(t *testing.T) {
	subtypes := []uint16{SubtypeMessage, SubtypeMessageAS4, SubtypeStateChange, SubtypeStateChangeAS4}
	f := func(body []byte, pick uint8) bool {
		hdr := make([]byte, HeaderLen)
		hdr[4], hdr[5] = 0, byte(TypeBGP4MP)
		st := subtypes[int(pick)%len(subtypes)]
		hdr[6], hdr[7] = byte(st>>8), byte(st)
		hdr[8] = byte(len(body) >> 24)
		hdr[9] = byte(len(body) >> 16)
		hdr[10] = byte(len(body) >> 8)
		hdr[11] = byte(len(body))
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked on subtype %d body %x: %v", st, body, r)
			}
		}()
		_, _ = readAll(bytes.NewReader(append(hdr, body...)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestStateChangeQuickRoundTrip: random state-change records round-trip.
func TestStateChangeQuickRoundTrip(t *testing.T) {
	f := func(peerAS, localAS uint32, ifIdx uint16, v6 bool, oldS, newS uint8, ts uint32) bool {
		sc := &BGP4MPStateChange{
			Timestamp: time.Unix(int64(ts), 0).UTC(),
			PeerAS:    bgp.ASN(peerAS),
			LocalAS:   bgp.ASN(localAS),
			IfIndex:   ifIdx,
			OldState:  SessionState(oldS%6) + 1,
			NewState:  SessionState(newS%6) + 1,
		}
		if v6 {
			sc.AFI = bgp.AFIIPv6
			sc.PeerIP = netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(peerAS)})
			sc.LocalIP = netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(localAS) | 1})
		} else {
			sc.AFI = bgp.AFIIPv4
			sc.PeerIP = netip.AddrFrom4([4]byte{192, 0, 2, byte(peerAS)})
			sc.LocalIP = netip.AddrFrom4([4]byte{192, 0, 2, byte(localAS) | 1})
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(sc); err != nil {
			return false
		}
		recs, err := readAll(&buf)
		if err != nil || len(recs) != 1 {
			return false
		}
		got, ok := recs[0].(*BGP4MPStateChange)
		if !ok {
			return false
		}
		return got.PeerAS == sc.PeerAS && got.LocalAS == sc.LocalAS &&
			got.IfIndex == sc.IfIndex && got.PeerIP == sc.PeerIP &&
			got.LocalIP == sc.LocalIP && got.OldState == sc.OldState &&
			got.NewState == sc.NewState && got.Timestamp.Equal(sc.Timestamp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

// TestMessageQuickRoundTrip: random BGP4MP message records (with a real
// UPDATE inside) round-trip through the writer and reader.
func TestMessageQuickRoundTrip(t *testing.T) {
	f := func(peerAS uint32, group uint16, ts uint32) bool {
		prefix, err := netip.AddrFrom16([16]byte{0x2a, 0x0d, 0x3d, 0xc1, byte(group >> 8), byte(group)}).Prefix(48)
		if err != nil {
			return false
		}
		u := &bgp.Update{
			Attrs: bgp.PathAttributes{
				HasOrigin: true,
				ASPath:    bgp.NewASPath(bgp.ASN(peerAS), 8298, 210312),
				MPReach: &bgp.MPReachNLRI{
					AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
					NextHop: netip.MustParseAddr("2001:db8::1"),
					NLRI:    []netip.Prefix{prefix},
				},
			},
		}
		wire, err := u.AppendWireFormat(nil)
		if err != nil {
			return false
		}
		msg := &BGP4MPMessage{
			Timestamp: time.Unix(int64(ts), 0).UTC(),
			PeerAS:    bgp.ASN(peerAS),
			LocalAS:   12654,
			AFI:       bgp.AFIIPv6,
			PeerIP:    netip.AddrFrom16([16]byte{0x20, 0x01, 15: 9}),
			LocalIP:   netip.AddrFrom16([16]byte{0x20, 0x01, 15: 10}),
			Data:      wire,
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(msg); err != nil {
			return false
		}
		recs, err := readAll(&buf)
		if err != nil || len(recs) != 1 {
			return false
		}
		got, ok := recs[0].(*BGP4MPMessage)
		if !ok || got.PeerAS != msg.PeerAS {
			return false
		}
		gu, err := got.Update()
		if err != nil {
			return false
		}
		ann := gu.Announced()
		return len(ann) == 1 && ann[0] == prefix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestWriterRejectsUnknownRecord(t *testing.T) {
	var buf bytes.Buffer
	type fake struct{ Record }
	err := NewWriter(&buf).Write(fake{})
	if err == nil {
		t.Error("unknown record type accepted")
	}
}
