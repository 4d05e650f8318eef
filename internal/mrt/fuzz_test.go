package mrt

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

// FuzzReader drives the MRT reader with mutated streams. Run with
// `go test -fuzz FuzzReader ./internal/mrt`.
func FuzzReader(f *testing.F) {
	// Seed with a real multi-record stream.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	w.Write(&BGP4MPStateChange{Timestamp: ts, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		OldState: StateActive, NewState: StateEstablished})
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			ASPath:    bgp.NewASPath(25091, 8298, 210312),
			MPReach: &bgp.MPReachNLRI{
				AFI: bgp.AFIIPv6, SAFI: bgp.SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48")},
			},
		},
	}
	wire, _ := u.AppendWireFormat(nil)
	w.Write(&BGP4MPMessage{Timestamp: ts, PeerAS: 1, LocalAS: 2, AFI: bgp.AFIIPv4,
		PeerIP: netip.MustParseAddr("192.0.2.1"), LocalIP: netip.MustParseAddr("192.0.2.2"),
		Data: wire})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, HeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewReader(bytes.NewReader(data))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // malformed input must yield an error, not a panic
			}
			// Decoded records must re-encode (writer accepts them) or
			// fail cleanly.
			var out bytes.Buffer
			_ = NewWriter(&out).Write(rec)
		}
	})
}

// FuzzDecoderBorrow decodes every record of a mutated stream twice, with
// Borrow off and on, and requires the same error or deep-equal records.
// Each borrowed record is compared before the next Decode, as the borrow
// contract requires, and both decoders live for the whole stream, so
// storage a borrowed record shares with an earlier entry or record shows.
// Seeded from the FuzzReader corpus; run with
// `go test -fuzz FuzzDecoderBorrow ./internal/mrt`.
func FuzzDecoderBorrow(f *testing.F) {
	seeds := corpusSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names) // seed#N names the same input on every run
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		owned, borrowed := Decoder{}, Decoder{Borrow: true}
		for i := 0; len(data) >= HeaderLen; i++ {
			ts, typ, subtype, n := ParseHeader([HeaderLen]byte(data))
			if n > MaxRecordLen || len(data)-HeaderLen < int(n) {
				return // framing errors are the Reader's, not the Decoder's
			}
			body := data[HeaderLen : HeaderLen+int(n)]
			data = data[HeaderLen+int(n):]
			want, wantErr := owned.Decode(ts, typ, subtype, body)
			got, gotErr := borrowed.Decode(ts, typ, subtype, body)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("record %d: borrowed error %v, owned %v", i, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d: borrowed decode\n%+v\nowned\n%+v", i, got, want)
			}
		}
	})
}
