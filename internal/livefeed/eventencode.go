package livefeed

import (
	"encoding/base64"
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
// prefix. FuzzEventEncode holds it to byte identity.
func appendEvent(dst []byte, ev *Event) ([]byte, bool) {
	if ev.Alert != nil {
		return dst, false
	}
	e := fastEncoder{b: dst, ok: true}
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
func (e *fastEncoder) time(t time.Time) {
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off%60 != 0 || off <= -24*3600 || off >= 24*3600 {
		e.ok = false
		return
	}
	e.b = append(e.b, '"')
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	e.b = append(e.b, '"')
}

// addr appends a quoted as Addr.MarshalText does; an IPv6 zone is free
// text, so it is checked like any string.
func (e *fastEncoder) addr(a netip.Addr) {
	e.b = append(e.b, '"')
	start := len(e.b)
	e.b = a.AppendTo(e.b)
	e.plain(start)
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
		// Prefix.MarshalText writes "invalid Prefix", which does not
		// decode back.
		if !p.IsValid() && p != (netip.Prefix{}) {
			e.ok = false
		}
		e.b = append(e.b, '"')
		e.b = p.AppendTo(e.b)
		e.b = append(e.b, '"')
	}
	e.b = append(e.b, ']')
}
