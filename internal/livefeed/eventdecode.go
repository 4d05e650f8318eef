package livefeed

import (
	"bytes"
	"encoding/base64"
	"math"
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
)

// decodeEventFast decodes an event-frame payload without reflection when
// it has exactly the byte shape json.Marshal(&ev) plus '\n' gives an
// update or state event: keys in struct order with omitempty respected,
// no whitespace, strings of printable ASCII without a backslash, unsigned
// integers in canonical form and within the field's width, non-empty
// arrays, no alert. Leaf values go through the methods
// encoding/json calls for them, so an accepted payload decodes to exactly
// what json.Unmarshal returns (FuzzEventDecode holds it to that, through
// a cold cache and a warm one). Anything else reports false and the caller
// falls back to json.Unmarshal.
func decodeEventFast(p []byte, c *decodeCache) (Event, bool) {
	d := fastDecoder{b: p, ok: true, c: c}
	var ev Event
	d.expect(`{"seq":`)
	ev.Seq = d.uint(64)
	d.expect(`,"channel":`)
	ev.Channel = eventName(d.str())
	d.expect(`,"type":`)
	ev.Type = eventName(d.str())
	if d.lit(`,"collector":`) {
		ev.Collector = c.name(d.nonEmptyStr())
	}
	d.expect(`,"timestamp":`)
	ev.Timestamp = d.time()
	if d.lit(`,"peer_as":`) {
		ev.PeerAS = bgp.ASN(d.nonZero(32))
	}
	d.expect(`,"peer":`)
	ev.Peer = d.addr()
	if d.lit(`,"path":`) {
		ev.Path = make([]bgp.ASN, 0, d.arrayLen())
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
	if d.lit(`,"raw":"`) {
		ev.Raw = d.base64()
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
	c  *decodeCache
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

// time consumes a quoted timestamp. time.Time decodes its own JSON
// literal, quotes included.
func (d *fastDecoder) time() (t time.Time) {
	m := &d.c.time
	if m.n > 0 && d.cached(m.bytes()) {
		return m.v
	}
	quoted := d.b
	if s := d.str(); d.ok {
		if d.check(t.UnmarshalJSON(quoted[:len(s)+2])); d.ok {
			m.store(t, s)
		}
	}
	return t
}

func (d *fastDecoder) addr() (a netip.Addr) {
	slot := &d.c.addrs[textSlotIndex(d.peek(), addrSlotBits)]
	if d.cached(slot.bytes()) {
		return slot.v
	}
	if s := d.str(); d.ok {
		if d.check(a.UnmarshalText(s)); d.ok {
			slot.store(a, s)
		}
	}
	return a
}

// prefixes consumes a non-empty array of prefix strings.
func (d *fastDecoder) prefixes() []netip.Prefix {
	ps := make([]netip.Prefix, 0, d.arrayLen())
	d.array(func() {
		var p netip.Prefix
		slot := &d.c.prefixes[textSlotIndex(d.peek(), prefixSlotBits)]
		if d.cached(slot.bytes()) {
			p = slot.v
		} else if s := d.str(); d.ok {
			if d.check(p.UnmarshalText(s)); d.ok {
				slot.store(p, s)
			}
		}
		ps = append(ps, p)
	})
	return ps
}

// peek returns the contents of the string the input starts with, up to
// the next quote and unchecked, to pick a cache slot by.
func (d *fastDecoder) peek() []byte {
	if d.ok && len(d.b) > 0 && d.b[0] == '"' {
		if end := bytes.IndexByte(d.b[1:], '"'); end >= 0 {
			return d.b[1 : end+1]
		}
	}
	return nil
}

// cached consumes a string whose contents are text, a cached text that
// str accepted when it was stored, and reports whether it did. It checks
// nothing else: text has no quote, so the string ends where text does.
func (d *fastDecoder) cached(text []byte) bool {
	n := len(text)
	if !d.ok || len(d.b) < n+2 || d.b[0] != '"' || d.b[n+1] != '"' || string(d.b[1:n+1]) != string(text) {
		return false
	}
	d.b = d.b[n+2:]
	return true
}

// base64 consumes the rest of a non-empty base64 string whose opening
// quote lit took. Decode rejects every byte outside the padded standard
// alphabet, which covers the backslash of any escape, control bytes and
// non-ASCII, but it skips CR and LF, which a JSON string cannot hold
// unescaped: a string with any decodes to fewer bytes than its length
// encodes, so the length check refuses it.
func (d *fastDecoder) base64() []byte {
	end := bytes.IndexByte(d.b, '"')
	if !d.ok || end <= 0 {
		d.ok = false
		return nil
	}
	s := d.b[:end]
	d.b = d.b[end+1:]
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(raw, s)
	if err != nil || base64.StdEncoding.EncodedLen(n) != len(s) {
		d.ok = false
	}
	return raw[:n]
}

// arrayLen counts the elements of the flat array ahead, one more than
// its commas before the first ']', so the caller can size the slice it
// fills. It is only a capacity: array and elem check the elements.
func (d *fastDecoder) arrayLen() int {
	n := 1
	for _, c := range d.b {
		switch c {
		case ',':
			n++
		case ']':
			return n
		}
	}
	return 0
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

// decodeCache remembers the values decodeEventFast parsed for recent
// address and prefix texts, the last collector name and the last
// timestamp. A lookup compares the whole text, so a hit returns exactly
// the value a miss would parse. It is not safe for concurrent use; each
// Conn owns one.
type decodeCache struct {
	addrs     [addrSlots]textSlot[netip.Addr]
	prefixes  [prefixSlots]textSlot[netip.Prefix]
	time      textSlot[time.Time]
	collector string
}

// name returns s as a string, the one it returned last when s has not
// changed.
func (c *decodeCache) name(s []byte) string {
	if string(s) != c.collector {
		c.collector = string(s)
	}
	return c.collector
}
