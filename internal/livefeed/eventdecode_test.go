package livefeed

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
)

// FuzzEventDecode holds Conn.Next's fast path to its contract: whenever
// decodeEventFast accepts a payload, json.Unmarshal accepts it too and
// the two Events are deeply equal, through a cold cache and through a
// warm one filled from the seeds. Run with
// `go test ./internal/livefeed -run NONE -fuzz FuzzEventDecode`.
func FuzzEventDecode(f *testing.F) {
	seeds := eventDecodeSeeds(f)
	for _, name := range sortedNames(seeds) {
		f.Add(seeds[name].data)
	}
	warm := warmDecodeCache(seeds)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := *warm
		checkEventDecode(t, data, &c)
	})
}

// warmDecodeCache returns a decode cache filled by decoding every seed.
func warmDecodeCache(seeds map[string]eventSeed) *decodeCache {
	c := new(decodeCache)
	for _, name := range sortedNames(seeds) {
		decodeEventFast(seeds[name].data, c)
	}
	return c
}

// checkEventDecode is the fuzz body: it reports whether the fast path
// took data, failing if it took it and disagrees with json.Unmarshal,
// through a cold cache or through warm, or if the two caches disagree on
// taking it.
func checkEventDecode(t testing.TB, data []byte, warm *decodeCache) bool {
	t.Helper()
	got, fast := decodeEventFast(data, new(decodeCache))
	gotWarm, fastWarm := decodeEventFast(data, warm)
	if fast != fastWarm {
		t.Fatalf("fast path took %q through a cold cache: %v, through a warm one: %v", data, fast, fastWarm)
	}
	if !fast {
		return false
	}
	var want Event
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path diverges from json.Unmarshal on %q:\n fast: %#v\n json: %#v", data, got, want)
	}
	if !reflect.DeepEqual(gotWarm, want) {
		t.Fatalf("fast path through a warm cache diverges from json.Unmarshal on %q:\n fast: %#v\n json: %#v", data, gotWarm, want)
	}
	return true
}

const eventDecodeCorpusDir = "testdata/fuzz/FuzzEventDecode"

// eventSeed is one committed FuzzEventDecode input and whether the fast
// path must take it.
type eventSeed struct {
	data []byte
	fast bool
}

// eventDecodeSeeds are the committed FuzzEventDecode starting points: the
// canonical update and state shapes, and one near miss per rule of the
// fast path's grammar, each of which json.Unmarshal may accept or reject.
func eventDecodeSeeds(t testing.TB) map[string]eventSeed {
	t.Helper()
	marshal := func(ev Event) string {
		b, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	ts := time.Date(2024, 6, 10, 12, 0, 0, 123456789, time.UTC)
	update := marshal(Event{
		Seq: 42, Channel: ChannelUpdates, Type: TypeUpdate, Collector: "rrc00", Timestamp: ts,
		PeerAS: 25091, Peer: netip.MustParseAddr("2001:db8::1"),
		Path: []bgp.ASN{25091, 8298, 210312},
		Announcements: []Announcement{{
			NextHop:  netip.MustParseAddr("2001:db8::1"),
			Prefixes: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1200::/48"), netip.MustParsePrefix("2a0d:3dc1:1201::/48")},
		}},
		Withdrawals: []netip.Prefix{netip.MustParsePrefix("84.205.64.0/24")},
		Raw:         []byte{0xde, 0xad, 0xbe, 0xef, 0xff},
	})
	state := marshal(Event{
		Seq: 43, Channel: ChannelUpdates, Type: TypeState, Collector: "rrc06", Timestamp: ts,
		PeerAS: 64500, Peer: netip.MustParseAddr("192.0.2.1"),
		OldState: 6, NewState: 1, Raw: []byte{1, 2, 3},
	})
	alert := marshal(Event{
		Seq: 44, Channel: ChannelZombie, Type: TypeZombie, Collector: "rrc00", Timestamp: ts,
		PeerAS: 25091, Peer: netip.MustParseAddr("2001:db8::1"),
		Alert: &Alert{Prefix: netip.MustParsePrefix("2a0d:3dc1:1200::/48"), Path: []bgp.ASN{25091, 8298}, AnnouncedAt: ts, DetectedAt: ts},
	})
	// anomaly carries an object under a key Event does not have.
	anomaly := `{"seq":44,"channel":"anomaly","type":"moas","timestamp":"2024-06-10T12:00:00.123456789Z","peer":"",` +
		`"anomaly":{"detector":"moas","kind":"moas","prefix":"84.205.64.0/24","peer":"",` +
		`"start":"2024-06-10T12:00:00.123456789Z","end":"2024-06-10T12:00:00.123456789Z","count":2}}` + "\n"
	// edit replaces the first occurrence of old in the canonical update,
	// failing loudly if a seed stops editing anything.
	edit := func(src, old, new string) string {
		if !strings.Contains(src, old) {
			t.Fatalf("seed edit %q does not apply to %q", old, src)
		}
		return strings.Replace(src, old, new, 1)
	}
	seeds := map[string]string{
		"update":           update,
		"state":            state,
		"minimal":          marshal(Event{}),
		"ipv6-zone":        marshal(Event{Seq: 1, Peer: netip.MustParseAddr("fe80::1%eth0"), Timestamp: ts}),
		"max-seq":          edit(update, `"seq":42`, `"seq":18446744073709551615`),
		"raw-lt":           edit(update, `"rrc00"`, `"rrc<00"`),
		"escaped-lt":       marshal(Event{Collector: "rrc<00"}),
		"escape-quote":     edit(update, `"rrc00"`, `"rrc\"00"`),
		"escape-unicode":   edit(update, `"rrc00"`, `"rrc\u0030\u0030"`),
		"non-ascii":        edit(update, `"rrc00"`, `"rrcé"`),
		"invalid-utf8":     edit(update, `"rrc00"`, "\"rrc\xff\""),
		"whitespace":       edit(update, `"seq":42`, `"seq": 42`),
		"trailing-space":   edit(update, "}\n", "} \n"),
		"upper-key":        edit(update, `"seq"`, `"Seq"`),
		"duplicate-key":    edit(update, `"channel"`, `"seq":7,"channel"`),
		"unknown-key":      edit(update, "}\n", `,"extra":1}`+"\n"),
		"null-path":        edit(update, `[25091,8298,210312]`, `null`),
		"empty-path":       edit(update, `[25091,8298,210312]`, `[]`),
		"empty-raw":        edit(state, `"raw":"AQID"`, `"raw":""`),
		"empty-collector":  edit(update, `"rrc00"`, `""`),
		"zero-peer-as":     edit(update, `"peer_as":25091`, `"peer_as":0`),
		"leading-zero":     edit(update, `"seq":42`, `"seq":042`),
		"negative":         edit(update, `"seq":42`, `"seq":-42`),
		"fraction":         edit(update, `"seq":42`, `"seq":42.0`),
		"exponent":         edit(update, `"seq":42`, `"seq":4.2e1`),
		"overflow-seq":     edit(update, `"seq":42`, `"seq":18446744073709551616`),
		"overflow-asn":     edit(update, `"peer_as":25091`, `"peer_as":4294967296`),
		"overflow-state":   edit(state, `"old_state":6`, `"old_state":65536`),
		"prefix-zone":      edit(update, `"84.205.64.0/24"`, `"fe80::/64%eth0"`),
		"bad-time":         edit(update, `2024-06-10`, `2024-13-10`),
		"bad-base64":       edit(state, `"AQID"`, `"A#ID"`),
		"base64-cr":        edit(state, `"AQID"`, "\"AQ\rID\""),
		"base64-lf":        edit(state, `"AQID"`, "\"AQID\n\n\n\n\""),
		"base64-solidus":   edit(state, `"AQID"`, `"A\/ID"`),
		"base64-unicode":   edit(state, `"AQID"`, `"\u0041QID"`),
		"base64-non-ascii": edit(state, `"AQID"`, "\"AQ\xc3\xa9ID\""),
		"no-newline":       strings.TrimSuffix(update, "\n"),
		"trailing-bytes":   update + "{}\n",
		"alert":            alert,
		"anomaly":          anomaly,
	}
	fast := map[string]bool{"update": true, "state": true, "minimal": true, "ipv6-zone": true, "max-seq": true, "raw-lt": true}
	out := make(map[string]eventSeed, len(seeds))
	for name, s := range seeds {
		out["seed-"+name] = eventSeed{data: []byte(s), fast: fast[name]}
	}
	return out
}

// TestEventDecodeSeedCorpus keeps the committed FuzzEventDecode corpus in
// sync with eventDecodeSeeds (regenerate with -update-corpus, same flag as
// FuzzFrame), runs the fuzz body over every seed, and pins which seeds the
// fast path takes.
func TestEventDecodeSeedCorpus(t *testing.T) {
	seeds := eventDecodeSeeds(t)
	warm := warmDecodeCache(seeds)
	if *updateCorpus {
		if err := os.MkdirAll(eventDecodeCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range seeds {
			if err := os.WriteFile(filepath.Join(eventDecodeCorpusDir, name), corpusEntry(s.data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, s := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(eventDecodeCorpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, s.data) {
				t.Fatal("committed corpus entry diverges from eventDecodeSeeds (run with -update-corpus)")
			}
			c := *warm
			if got := checkEventDecode(t, s.data, &c); got != s.fast {
				t.Fatalf("fast path took %q: %v, want %v", s.data, got, s.fast)
			}
		})
	}
}

// TestEventDecodeFastPathCoverage keeps both fast paths from decaying
// into their fallbacks unnoticed: every update and state frame the broker
// publishes for the author scenario is encoded by appendEvent and decoded
// by decodeEventFast, and every alert is encoded by json.Encoder and
// decoded by json.Unmarshal. One cache of each kind runs over the whole
// stream, as in a broker and a Conn.
func TestEventDecodeFastPathCoverage(t *testing.T) {
	fast, alerts := 0, 0
	var enc encodeCache
	var dec decodeCache
	for i, fr := range authorFrames(t) {
		took := checkEventDecode(t, fr.payload, &dec)
		encoded := checkEventEncode(t, fr.ev, &enc)
		switch ch := fr.ev.Channel; {
		case ch == ChannelUpdates && !encoded:
			t.Fatalf("update frame %d fell back to json.Encoder: %s", i, fr.payload)
		case ch == ChannelUpdates && !took:
			t.Fatalf("update frame %d fell back to json.Unmarshal: %s", i, fr.payload)
		case ch == ChannelUpdates:
			fast++
		case took || encoded:
			t.Fatalf("%s frame %d took a fast path (encode %v, decode %v)", ch, i, encoded, took)
		default:
			var ev Event
			if err := json.Unmarshal(fr.payload, &ev); err != nil || ev.Alert == nil {
				t.Fatalf("%s frame %d does not decode: %v", ch, i, err)
			}
			alerts++
		}
	}
	if fast == 0 || alerts == 0 {
		t.Fatalf("scenario too small: %d fast-path frames, %d alerts", fast, alerts)
	}
	t.Logf("%d update/state frames on the fast paths, %d alerts on the fallbacks", fast, alerts)
}

// authorFrame is one event the broker published for the author scenario
// and its NDJSON payload.
type authorFrame struct {
	ev      Event
	payload []byte
}

// authorFrames publishes the author scenario (seed 42, scale 16) through
// a broker and its pipeline and returns every frame in sequence order.
func authorFrames(tb testing.TB) []authorFrame {
	tb.Helper()
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 16))
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBroker(Config{RingSize: 1 << 16})
	defer b.Close()
	sub, _, err := b.Subscribe(Filter{}, PolicyBlock, 0)
	if err != nil {
		tb.Fatal(err)
	}
	pipe := NewPipeline(b, data.Intervals, 0)
	for _, sr := range stream {
		pipe.Ingest(sr)
	}
	pipe.Flush(data.Config.TrackUntil)
	frames := make([]authorFrame, 0, b.Seq())
	for seq := uint64(1); seq <= b.Seq(); seq++ {
		fr, err := sub.NextFrameTimeout(2 * time.Second)
		if err != nil {
			tb.Fatalf("frame %d: %v", seq, err)
		}
		frames = append(frames, authorFrame{ev: fr.f.ev, payload: append([]byte(nil), fr.Wire()[frameHeaderLen:]...)})
		fr.Release()
	}
	return frames
}

// BenchmarkEventCodec times the two fast paths over the author scenario's
// update and state events, one event per op in stream order, each through
// one cache as in a broker and a Conn. Alerts take the json fallbacks and
// are left out. BENCH_codec.json fences allocs/op: encode writes into a
// reused buffer and allocates nothing; decode allocates the Event's own
// slices.
func BenchmarkEventCodec(b *testing.B) {
	var evs []Event
	var payloads [][]byte
	size := 0
	for _, fr := range authorFrames(b) {
		if fr.ev.Alert == nil {
			evs = append(evs, fr.ev)
			payloads = append(payloads, fr.payload)
			size += len(fr.payload)
		}
	}
	b.Run("encode", func(b *testing.B) {
		var c encodeCache
		buf := make([]byte, 0, 64<<10)
		b.SetBytes(int64(size / len(evs)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var ok bool
			if buf, ok = appendEvent(buf[:0], &evs[i%len(evs)], &c); !ok {
				b.Fatalf("event %d fell back to json.Encoder", i%len(evs))
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var c decodeCache
		b.SetBytes(int64(size / len(evs)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := decodeEventFast(payloads[i%len(payloads)], &c); !ok {
				b.Fatalf("payload %d fell back to json.Unmarshal", i%len(payloads))
			}
		}
	})
}
