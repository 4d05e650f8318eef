package livefeed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

// Shape bits of an encodeInput: which kind of event fuzzEncodeEvent
// builds around the fuzzed leaves.
const (
	shapeState         = 1 << iota // a STATE event instead of an UPDATE
	shapeAlert                     // a zombie-channel event carrying an Alert
	_                              // unused; the later bits keep their values
	shapeNilPrefixes               // an announcement with no prefixes
	shapeInvalidPrefix             // a non-zero prefix that is not valid
)

// encodeInput is one FuzzEventEncode input: the fuzzed leaves of an
// event, in the order of the fuzz function's arguments.
type encodeInput struct {
	shape     uint8
	seq       uint64
	collector string
	sec, nsec int64
	offset    int32 // zone offset in seconds; 0 is UTC
	peer      []byte
	zone      string
	raw       []byte
}

// corpusEntry renders in in the `go test fuzz v1` format FuzzEventEncode
// consumes.
func (in encodeInput) corpusEntry() []byte {
	var b strings.Builder
	b.WriteString("go test fuzz v1\n")
	for _, a := range []any{in.shape, in.seq, in.collector, in.sec, in.nsec, in.offset, in.peer, in.zone, in.raw} {
		switch v := a.(type) {
		case string:
			fmt.Fprintf(&b, "string(%s)\n", strconv.Quote(v))
		case []byte:
			fmt.Fprintf(&b, "[]byte(%s)\n", strconv.Quote(string(v)))
		default:
			fmt.Fprintf(&b, "%T(%v)\n", v, v)
		}
	}
	return []byte(b.String())
}

// fuzzEncodeEvent builds the event an encodeInput describes: the fuzzed
// strings, time, zone offset, peer address and raw bytes land in every
// leaf appendEvent writes, and the shape bits pick the event kind and the
// announcement and withdrawal shapes.
func fuzzEncodeEvent(in encodeInput) Event {
	ts := time.Unix(in.sec, in.nsec).UTC()
	if in.offset != 0 {
		ts = ts.In(time.FixedZone("", int(in.offset)))
	}
	peer, _ := netip.AddrFromSlice(in.peer)
	if peer.Is6() {
		peer = peer.WithZone(in.zone)
	}
	ev := Event{
		Seq: in.seq, Channel: ChannelUpdates, Type: TypeUpdate, Collector: in.collector,
		Timestamp: ts, PeerAS: bgp.ASN(in.seq >> 32), Peer: peer, Raw: in.raw,
	}
	pfx := netip.PrefixFrom(peer.WithZone(""), int(in.seq%33))
	switch {
	case in.shape&shapeAlert != 0:
		ev.Channel, ev.Type = ChannelZombie, TypeZombie
		ev.Alert = &Alert{Prefix: pfx, Path: []bgp.ASN{25091}, AnnouncedAt: ts, DetectedAt: ts}
	case in.shape&shapeState != 0:
		ev.Type = TypeState
		ev.OldState, ev.NewState = uint16(in.seq), uint16(in.seq>>16)
	default:
		for _, c := range in.raw {
			ev.Path = append(ev.Path, bgp.ASN(c)*16777259)
		}
		ev.Announcements = []Announcement{{NextHop: peer, Prefixes: []netip.Prefix{pfx, {}}}}
		ev.Withdrawals = []netip.Prefix{pfx}
	}
	if in.shape&shapeNilPrefixes != 0 {
		ev.Announcements = append(ev.Announcements, Announcement{NextHop: peer})
	}
	if in.shape&shapeInvalidPrefix != 0 {
		ev.Withdrawals = append(ev.Withdrawals, netip.PrefixFrom(netip.IPv4Unspecified(), 33))
	}
	return ev
}

// FuzzEventEncode holds appendEvent to json.Encoder: whenever appendEvent
// accepts an event its bytes equal json.Encoder's, whenever json.Encoder
// fails appendEvent declines, and an accepted UTC event decodes back
// through decodeEventFast to itself, through a cold cache and through a
// warm one filled from the seeds. Run with
// `go test ./internal/livefeed -run NONE -fuzz FuzzEventEncode`.
func FuzzEventEncode(f *testing.F) {
	seeds := eventEncodeSeeds()
	for _, name := range sortedNames(seeds) {
		in := seeds[name].in
		f.Add(in.shape, in.seq, in.collector, in.sec, in.nsec, in.offset, in.peer, in.zone, in.raw)
	}
	warm := warmEncodeCache(seeds)
	f.Fuzz(func(t *testing.T, shape uint8, seq uint64, collector string, sec, nsec int64, offset int32, peer []byte, zone string, raw []byte) {
		c := *warm
		checkEventEncode(t, fuzzEncodeEvent(encodeInput{shape, seq, collector, sec, nsec, offset, peer, zone, raw}), &c)
	})
}

// warmEncodeCache returns an encode cache filled by encoding every seed.
func warmEncodeCache(seeds map[string]encodeSeed) *encodeCache {
	c := new(encodeCache)
	for _, name := range sortedNames(seeds) {
		ev := fuzzEncodeEvent(seeds[name].in)
		appendEvent(nil, &ev, c)
	}
	return c
}

// checkEventEncode is the fuzz body: it reports whether appendEvent took
// ev, failing if its bytes differ from json.Encoder's or do not decode
// back to ev, through a cold cache or through warm, or if the two caches
// disagree on taking it.
func checkEventEncode(t testing.TB, ev Event, warm *encodeCache) bool {
	t.Helper()
	prefix := []byte("hdr")
	got, fast := appendEvent(append([]byte(nil), prefix...), &ev, new(encodeCache))
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("appendEvent overwrote its dst: %q", got)
	}
	gotWarm, fastWarm := appendEvent(append([]byte(nil), prefix...), &ev, warm)
	if fast != fastWarm || !bytes.Equal(got, gotWarm) {
		t.Fatalf("appendEvent through a warm cache diverges from a cold one:\n cold: %v %q\n warm: %v %q", fast, got, fastWarm, gotWarm)
	}
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(&ev)
	if !fast {
		if len(got) != len(prefix) {
			t.Fatalf("appendEvent declined but left %d bytes behind", len(got)-len(prefix))
		}
		return false
	}
	if ev.Alert != nil {
		t.Fatalf("appendEvent took a %s event", ev.Channel)
	}
	if err != nil {
		t.Fatalf("appendEvent took an event json.Encoder rejects (%v): %q", err, got)
	}
	got = got[len(prefix):]
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendEvent diverges from json.Encoder:\n fast: %q\n json: %q", got, want.Bytes())
	}
	// Round trip. Only UTC survives decoding as the same Location, and
	// omitempty cannot tell an empty slice from a nil one.
	if ev.Timestamp.Location() != time.UTC {
		return true
	}
	back, ok := decodeEventFast(got, new(decodeCache))
	if !ok {
		t.Fatalf("decodeEventFast declines appendEvent's bytes %q", got)
	}
	if len(ev.Path) == 0 {
		ev.Path = nil
	}
	if len(ev.Announcements) == 0 {
		ev.Announcements = nil
	}
	if len(ev.Withdrawals) == 0 {
		ev.Withdrawals = nil
	}
	if len(ev.Raw) == 0 {
		ev.Raw = nil
	}
	if !reflect.DeepEqual(back, ev) {
		t.Fatalf("round trip through %q:\n got:  %#v\n want: %#v", got, back, ev)
	}
	return true
}

const eventEncodeCorpusDir = "testdata/fuzz/FuzzEventEncode"

// encodeSeed is one committed FuzzEventEncode input and whether
// appendEvent must take it.
type encodeSeed struct {
	in   encodeInput
	fast bool
}

// eventEncodeSeeds are the committed FuzzEventEncode starting points: the
// canonical update and state shapes, and one input per reason appendEvent
// declines, each of which json.Encoder may write or reject.
func eventEncodeSeeds() map[string]encodeSeed {
	v4 := []byte{192, 0, 2, 1}
	v6 := netip.MustParseAddr("2001:db8::1").AsSlice()
	ll := netip.MustParseAddr("fe80::1").AsSlice()
	update := encodeInput{seq: 42 | 25091<<32, collector: "rrc00", sec: 1718020800, nsec: 123456789, peer: v6, raw: []byte{0xde, 0xad, 0xbe, 0xef}}
	with := func(edit func(*encodeInput)) encodeInput {
		in := update
		edit(&in)
		return in
	}
	seeds := map[string]encodeSeed{
		"update":          {update, true},
		"state":           {with(func(in *encodeInput) { in.shape, in.peer = shapeState, v4 }), true},
		"zoned-peer":      {with(func(in *encodeInput) { in.peer, in.zone = ll, "eth0" }), true},
		"zero-peer":       {with(func(in *encodeInput) { in.peer = nil }), true},
		"empty-raw":       {with(func(in *encodeInput) { in.shape, in.raw = shapeState, []byte{} }), true},
		"html-collector":  {with(func(in *encodeInput) { in.collector = "rrc<>&" }), false},
		"non-ascii":       {with(func(in *encodeInput) { in.collector = "rrcé" }), false},
		"html-zone":       {with(func(in *encodeInput) { in.peer, in.zone = ll, "<eth0>" }), false},
		"year-10000":      {with(func(in *encodeInput) { in.sec = 253402300800 }), false},
		"offset-seconds":  {with(func(in *encodeInput) { in.offset = 3601 }), false},
		"offset-minutes":  {with(func(in *encodeInput) { in.offset = -5400 }), true},
		"nil-prefixes":    {with(func(in *encodeInput) { in.shape = shapeNilPrefixes }), false},
		"invalid-prefix":  {with(func(in *encodeInput) { in.shape = shapeInvalidPrefix }), false},
		"alert":           {with(func(in *encodeInput) { in.shape = shapeAlert }), false},
		"state-nil-raw":   {with(func(in *encodeInput) { in.shape, in.raw = shapeState, nil }), true},
		"max-seq":         {with(func(in *encodeInput) { in.seq = 1<<64 - 1 }), true},
		"negative-offset": {with(func(in *encodeInput) { in.offset = -86400 }), false},
	}
	out := make(map[string]encodeSeed, len(seeds))
	for name, s := range seeds {
		out["seed-"+name] = s
	}
	return out
}

// TestEventEncodeSeedCorpus keeps the committed FuzzEventEncode corpus in
// sync with eventEncodeSeeds (regenerate with -update-corpus, same flag as
// FuzzFrame), runs the fuzz body over every seed, and pins which seeds
// appendEvent takes.
func TestEventEncodeSeedCorpus(t *testing.T) {
	seeds := eventEncodeSeeds()
	warm := warmEncodeCache(seeds)
	if *updateCorpus {
		if err := os.MkdirAll(eventEncodeCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range seeds {
			if err := os.WriteFile(filepath.Join(eventEncodeCorpusDir, name), s.in.corpusEntry(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, s := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(eventEncodeCorpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if !bytes.Equal(raw, s.in.corpusEntry()) {
				t.Fatal("committed corpus entry diverges from eventEncodeSeeds (run with -update-corpus)")
			}
			c := *warm
			if got := checkEventEncode(t, fuzzEncodeEvent(s.in), &c); got != s.fast {
				t.Fatalf("appendEvent took the seed: %v, want %v", got, s.fast)
			}
		})
	}
}

// TestCodecCacheCollisions cycles three events whose addresses,
// prefixes, timestamps and collectors share every cache slot, through one
// encode cache and one decode cache. Each encode must equal json.Encoder's
// bytes and each decode json.Unmarshal's Event, so a slot may answer only
// for its own key. The zero Addr and Prefix are among the keys: their text
// is empty. Two of the timestamps are one instant in two zones, which a
// memo comparing instants would confuse.
func TestCodecCacheCollisions(t *testing.T) {
	addrs := colliding(t, netip.Addr{}, func(i int) netip.Addr {
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 13: byte(i >> 16), 14: byte(i >> 8), 15: byte(i)})
	}, addrSlot, addrSlotBits)
	prefixes := colliding(t, netip.Prefix{}, func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, 0x0d, 0x3d, 0xc1, byte(i >> 16), byte(i >> 8), byte(i)}), 64)
	}, prefixSlot, prefixSlotBits)
	ts := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	times := []time.Time{ts, ts.In(time.FixedZone("", 3600)), ts.Add(time.Nanosecond)}
	var enc encodeCache
	var dec decodeCache
	for i := 0; i < 9; i++ {
		k := i % 3
		ev := Event{
			Seq: uint64(i + 1), Channel: ChannelUpdates, Type: TypeUpdate, Collector: fmt.Sprintf("rrc%02d", k),
			Timestamp: times[k], PeerAS: 25091, Peer: addrs[k], Path: []bgp.ASN{25091, 8298},
			Announcements: []Announcement{{NextHop: addrs[k], Prefixes: []netip.Prefix{prefixes[k]}}},
			Withdrawals:   []netip.Prefix{prefixes[k]}, Raw: []byte{byte(i)},
		}
		got, ok := appendEvent(nil, &ev, &enc)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&ev); err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("event %d: encode through a shared slot:\n got:  %q\n want: %q", i, got, want.Bytes())
		}
		back, ok := decodeEventFast(got, &dec)
		var wantEv Event
		if err := json.Unmarshal(got, &wantEv); err != nil {
			t.Fatal(err)
		}
		if !ok || !reflect.DeepEqual(back, wantEv) {
			t.Fatalf("event %d: decode through a shared slot:\n got:  %#v\n want: %#v", i, back, wantEv)
		}
	}
}

// colliding returns first and two distinct values of gen that share its
// encode slot (by slot) and its decode slot (by text, over 1<<textBits
// slots).
func colliding[T interface {
	comparable
	AppendTo([]byte) []byte
}](t *testing.T, first T, gen func(int) T, slot func(T) int, textBits int) []T {
	t.Helper()
	text := first.AppendTo(nil)
	vs := []T{first}
	for i := 0; i < 1<<24 && len(vs) < 3; i++ {
		v := gen(i)
		if v != first && slot(v) == slot(first) && textSlotIndex(v.AppendTo(nil), textBits) == textSlotIndex(text, textBits) {
			vs = append(vs, v)
		}
	}
	if len(vs) < 3 {
		t.Fatal("no three colliding values")
	}
	return vs
}
