package livefeed

import (
	"encoding/base64"
	"math"
	"net/netip"

	"zombiescope/internal/bgp"
)

// decodeEventFast decodes an event-frame payload without reflection when
// it has exactly the byte shape json.Marshal(&ev) plus '\n' gives an
// update or state event: keys in struct order with omitempty respected,
// no whitespace, strings of printable ASCII without a backslash, unsigned
// integers in canonical form and within the field's width, non-empty
// arrays, no alert. Leaf values go through the methods
// encoding/json calls for them, so an accepted payload decodes to exactly
// what json.Unmarshal returns (FuzzEventDecode holds it to that). Anything
// else reports false and the caller falls back to json.Unmarshal.
func decodeEventFast(p []byte) (Event, bool) {
	d := fastDecoder{b: p, ok: true}
	var ev Event
	d.expect(`{"seq":`)
	ev.Seq = d.uint(64)
	d.expect(`,"channel":`)
	ev.Channel = eventName(d.str())
	d.expect(`,"type":`)
	ev.Type = eventName(d.str())
	if d.lit(`,"collector":`) {
		ev.Collector = string(d.nonEmptyStr())
	}
	d.expect(`,"timestamp":`)
	quoted := d.b
	if d.str(); d.ok {
		// time.Time decodes its own JSON literal, quotes included.
		d.check(ev.Timestamp.UnmarshalJSON(quoted[:len(quoted)-len(d.b)]))
	}
	if d.lit(`,"peer_as":`) {
		ev.PeerAS = bgp.ASN(d.nonZero(32))
	}
	d.expect(`,"peer":`)
	ev.Peer = d.addr()
	if d.lit(`,"path":`) {
		d.array(func() { ev.Path = append(ev.Path, bgp.ASN(d.uint(32))) })
	}
	if d.lit(`,"announcements":`) {
		d.array(func() {
			var a Announcement
			d.expect(`{"next_hop":`)
			a.NextHop = d.addr()
			d.expect(`,"prefixes":`)
			a.Prefixes = d.prefixes()
			d.expect(`}`)
			ev.Announcements = append(ev.Announcements, a)
		})
	}
	if d.lit(`,"withdrawals":`) {
		ev.Withdrawals = d.prefixes()
	}
	if d.lit(`,"old_state":`) {
		ev.OldState = uint16(d.nonZero(16))
	}
	if d.lit(`,"new_state":`) {
		ev.NewState = uint16(d.nonZero(16))
	}
	if d.lit(`,"raw":`) {
		s := d.nonEmptyStr()
		ev.Raw = make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(ev.Raw, s)
		d.check(err)
		ev.Raw = ev.Raw[:n]
	}
	d.expect("}\n")
	if !d.ok || len(d.b) != 0 {
		return Event{}, false
	}
	return ev, true
}

// eventName returns s as a string, sharing the constants for the channel
// and type names update and state events carry instead of allocating them.
func eventName(s []byte) string {
	switch string(s) {
	case ChannelUpdates:
		return ChannelUpdates
	case TypeUpdate:
		return TypeUpdate
	case TypeState:
		return TypeState
	}
	return string(s)
}

// fastDecoder is decodeEventFast's cursor. The first mismatch clears ok,
// and every later step is then a no-op.
type fastDecoder struct {
	b  []byte
	ok bool
}

// lit consumes s if the input continues with it.
func (d *fastDecoder) lit(s string) bool {
	if !d.ok || len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// expect consumes s or fails.
func (d *fastDecoder) expect(s string) {
	if !d.lit(s) {
		d.ok = false
	}
}

func (d *fastDecoder) check(err error) {
	if err != nil {
		d.ok = false
	}
}

// str consumes a string of printable ASCII without a backslash and
// returns its contents, aliasing the input.
func (d *fastDecoder) str() []byte {
	if !d.lit(`"`) {
		d.ok = false
		return nil
	}
	for i, c := range d.b {
		if c == '"' {
			s := d.b[:i]
			d.b = d.b[i+1:]
			return s
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	d.ok = false
	return nil
}

// nonEmptyStr is str for an omitempty field, which json.Marshal never
// writes empty.
func (d *fastDecoder) nonEmptyStr() []byte {
	s := d.str()
	if len(s) == 0 {
		d.ok = false
	}
	return s
}

// uint consumes an unsigned integer of at most bits bits: digits only, no
// leading zero. Whatever follows must be the literal the grammar expects
// next, so a fraction or an exponent fails there.
func (d *fastDecoder) uint(bits int) uint64 {
	limit := uint64(math.MaxUint64) >> (64 - bits)
	var n uint64
	i := 0
	for ; d.ok && i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		c := uint64(d.b[i] - '0')
		if n > (limit-c)/10 || (i == 1 && d.b[0] == '0') {
			d.ok = false
		}
		n = n*10 + c
	}
	if i == 0 {
		d.ok = false
	}
	d.b = d.b[i:]
	return n
}

// nonZero is uint for an omitempty field.
func (d *fastDecoder) nonZero(bits int) uint64 {
	n := d.uint(bits)
	if n == 0 {
		d.ok = false
	}
	return n
}

func (d *fastDecoder) addr() (a netip.Addr) {
	if s := d.str(); d.ok {
		d.check(a.UnmarshalText(s))
	}
	return a
}

// prefixes consumes a non-empty array of prefix strings.
func (d *fastDecoder) prefixes() (ps []netip.Prefix) {
	d.array(func() {
		var p netip.Prefix
		if s := d.str(); d.ok {
			d.check(p.UnmarshalText(s))
		}
		ps = append(ps, p)
	})
	return ps
}

// array consumes a non-empty array, calling elem to consume each element.
func (d *fastDecoder) array(elem func()) {
	d.expect("[")
	for d.ok {
		elem()
		if !d.lit(",") {
			break
		}
	}
	d.expect("]")
}
