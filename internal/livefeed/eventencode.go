package livefeed

import (
	"encoding/base64"
	"encoding/binary"
	"math/bits"
	"net/netip"
	"strconv"
	"time"
)

// appendEvent appends to dst exactly the bytes json.Encoder.Encode(ev)
// gives an update or state event, the mirror of decodeEventFast: keys in
// struct order with omitempty respected, and every leaf through the append
// form of the method encoding/json calls for it. It reports false, with
// only dst's bytes in the result, for alerts and for anything json.Marshal
// would escape or reject: a string byte outside printable ASCII or in
// `"\<>&`; a year outside 0-9999; a zone offset not in whole minutes or
// not under a day; an announcement with no prefixes; an invalid non-zero
// prefix. Addresses, prefixes and the timestamp go through c, whose hits
// append the text the plain path would. FuzzEventEncode holds it to byte
// identity, through a cold cache and a warm one.
func appendEvent(dst []byte, ev *Event, c *encodeCache) ([]byte, bool) {
	if ev.Alert != nil {
		return dst, false
	}
	e := fastEncoder{b: dst, ok: true, c: c}
	e.b = append(e.b, `{"seq":`...)
	e.b = strconv.AppendUint(e.b, ev.Seq, 10)
	e.b = append(e.b, `,"channel":`...)
	e.str(ev.Channel)
	e.b = append(e.b, `,"type":`...)
	e.str(ev.Type)
	if ev.Collector != "" {
		e.b = append(e.b, `,"collector":`...)
		e.str(ev.Collector)
	}
	e.b = append(e.b, `,"timestamp":`...)
	e.time(ev.Timestamp)
	if ev.PeerAS != 0 {
		e.b = append(e.b, `,"peer_as":`...)
		e.b = strconv.AppendUint(e.b, uint64(ev.PeerAS), 10)
	}
	// omitempty never omits a struct, so the zero Addr is written as "".
	e.b = append(e.b, `,"peer":`...)
	e.addr(ev.Peer)
	if len(ev.Path) > 0 {
		e.b = append(e.b, `,"path":[`...)
		for i, as := range ev.Path {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = strconv.AppendUint(e.b, uint64(as), 10)
		}
		e.b = append(e.b, ']')
	}
	if len(ev.Announcements) > 0 {
		e.b = append(e.b, `,"announcements":[`...)
		for i := range ev.Announcements {
			a := &ev.Announcements[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"next_hop":`...)
			e.addr(a.NextHop)
			e.b = append(e.b, `,"prefixes":`...)
			e.prefixes(a.Prefixes) // no omitempty: nil would be null
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if len(ev.Withdrawals) > 0 {
		e.b = append(e.b, `,"withdrawals":`...)
		e.prefixes(ev.Withdrawals)
	}
	if ev.OldState != 0 {
		e.b = append(e.b, `,"old_state":`...)
		e.b = strconv.AppendUint(e.b, uint64(ev.OldState), 10)
	}
	if ev.NewState != 0 {
		e.b = append(e.b, `,"new_state":`...)
		e.b = strconv.AppendUint(e.b, uint64(ev.NewState), 10)
	}
	if len(ev.Raw) > 0 {
		e.b = append(e.b, `,"raw":"`...)
		e.b = base64.StdEncoding.AppendEncode(e.b, ev.Raw)
		e.b = append(e.b, '"')
	}
	e.b = append(e.b, "}\n"...)
	if !e.ok {
		return e.b[:len(dst)], false
	}
	return e.b, true
}

// fastEncoder is appendEvent's cursor. The first value json.Marshal would
// write differently clears ok; appendEvent then discards the bytes.
type fastEncoder struct {
	b  []byte
	ok bool
	c  *encodeCache
}

// str appends s quoted.
func (e *fastEncoder) str(s string) {
	e.b = append(e.b, '"')
	start := len(e.b)
	e.b = append(e.b, s...)
	e.plain(start)
	e.b = append(e.b, '"')
}

// plain checks that the bytes appended since start are printable ASCII
// that json.Encoder writes unescaped (it escapes '<', '>' and '&' for
// HTML safety).
func (e *fastEncoder) plain(start int) {
	for _, c := range e.b[start:] {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.ok = false
		}
	}
}

// time appends t as Time.MarshalJSON does, failing where it fails (year,
// zone hour) and where decoding the text would not give t's offset back.
// The memo holds only a time that passed those checks.
func (e *fastEncoder) time(t time.Time) {
	m := &e.c.time
	if m.n > 0 && m.v == t {
		e.b = append(e.b, m.bytes()...)
		return
	}
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off%60 != 0 || off <= -24*3600 || off >= 24*3600 {
		e.ok = false
		return
	}
	start := len(e.b)
	e.b = append(e.b, '"')
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	e.b = append(e.b, '"')
	m.store(t, e.b[start:])
}

// addr appends a quoted as Addr.MarshalText does. An IPv6 zone is free
// text, so a zoned address bypasses the table and is checked like any
// string; no other address text needs the check.
func (e *fastEncoder) addr(a netip.Addr) {
	e.b = append(e.b, '"')
	if a.Zone() != "" {
		start := len(e.b)
		e.b = a.AppendTo(e.b)
		e.plain(start)
	} else if s := &e.c.addrs[addrSlot(a)]; s.v == a {
		e.b = append(e.b, s.bytes()...)
	} else {
		start := len(e.b)
		e.b = a.AppendTo(e.b)
		s.store(a, e.b[start:])
	}
	e.b = append(e.b, '"')
}

// prefixes appends a non-empty array of quoted prefixes.
func (e *fastEncoder) prefixes(ps []netip.Prefix) {
	if len(ps) == 0 {
		e.ok = false
		return
	}
	e.b = append(e.b, '[')
	for i, p := range ps {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, '"')
		if s := &e.c.prefixes[prefixSlot(p)]; s.v == p {
			e.b = append(e.b, s.bytes()...)
		} else if p.IsValid() || p == (netip.Prefix{}) {
			start := len(e.b)
			e.b = p.AppendTo(e.b)
			s.store(p, e.b[start:])
		} else {
			// Prefix.MarshalText writes "invalid Prefix", which does not
			// decode back.
			e.ok = false
		}
		e.b = append(e.b, '"')
	}
	e.b = append(e.b, ']')
}

// Slot counts of the codec's text caches, as powers of two so a hash
// picks a slot by its top bits. A feed names a few dozen peer and
// next-hop addresses, and a few hundred prefixes are in flight at a time.
const (
	addrSlotBits   = 9
	prefixSlotBits = 8
	addrSlots      = 1 << addrSlotBits
	prefixSlots    = 1 << prefixSlotBits
)

// textMax is the longest text a cache slot holds: an IPv6 prefix written
// in full. Longer text is never stored.
const textMax = len("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128")

// textSlot is one entry of a bounded cache between a value and its text.
// The zero slot maps the zero value to the empty text, which is what
// AppendTo writes for the zero Addr and Prefix and what UnmarshalText
// reads back from "", so an unused table slot is a correct entry. A memo
// of a value whose text is never empty (a timestamp) tests n instead.
type textSlot[T comparable] struct {
	v    T
	n    uint8
	text [textMax]byte
}

func (s *textSlot[T]) bytes() []byte { return s.text[:s.n] }

// store makes the slot map v to text, if text fits; otherwise the slot
// keeps its old entry, which is still correct.
func (s *textSlot[T]) store(v T, text []byte) {
	if len(text) <= textMax {
		s.v, s.n = v, uint8(copy(s.text[:], text))
	}
}

// encodeCache remembers the text appendEvent wrote for recent addresses,
// prefixes and the last timestamp. A table lookup compares the whole key
// with ==, so a hit appends exactly the text a miss would format (for a
// time.Time, == also compares the Location pointer). It is not safe for
// concurrent use: the broker keeps one under its lock, and each journal
// backlog one for its consumer goroutine.
type encodeCache struct {
	addrs    [addrSlots]textSlot[netip.Addr]
	prefixes [prefixSlots]textSlot[netip.Prefix]
	time     textSlot[time.Time] // text quoted
}

// mix is the splitmix64 finalizer: every input bit reaches the top bits,
// which pick a slot.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// addrBits folds a's 128 bits into one word for mix.
func addrBits(a netip.Addr) uint64 {
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]) ^ bits.RotateLeft64(binary.BigEndian.Uint64(b[8:]), 32)
}

func addrSlot(a netip.Addr) int { return int(mix(addrBits(a)) >> (64 - addrSlotBits)) }

func prefixSlot(p netip.Prefix) int {
	return int(mix(addrBits(p.Addr())^uint64(p.Bits())) >> (64 - prefixSlotBits))
}

// textSlotIndex hashes an address or prefix text to one of 1<<slotBits
// slots. Text of eight bytes or more is read as three overlapping words,
// from its start, middle and end, so texts that share a network part
// still spread.
func textSlotIndex(s []byte, slotBits int) int {
	h := uint64(len(s))
	if len(s) >= 8 {
		h ^= binary.LittleEndian.Uint64(s) ^
			bits.RotateLeft64(binary.LittleEndian.Uint64(s[(len(s)-8)/2:]), 21) ^
			bits.RotateLeft64(binary.LittleEndian.Uint64(s[len(s)-8:]), 42)
	} else {
		for _, c := range s {
			h = h<<8 | uint64(c)
		}
	}
	return int(mix(h) >> (64 - slotBits))
}
