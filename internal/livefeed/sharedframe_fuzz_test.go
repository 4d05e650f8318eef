package livefeed

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zombiescope/internal/bgp"
)

// FuzzSharedFrame drives the encode-once framing plus the refcount
// lifecycle with fuzzer-shaped events and release orderings. Run with
// `go test ./internal/livefeed -run NONE -fuzz FuzzSharedFrame`.
//
// The input bytes are split into a script (how many holders retain the
// frame, in what order churn and releases interleave, whether to probe
// the double-release panic) and raw material for the event's string and
// byte fields (arbitrary, including invalid UTF-8). The invariants:
//
//  1. The frame's wire bytes equal an independent WriteFrame of the same
//     event — encode-once output is byte-identical to per-client encode.
//  2. The wire bytes parse back through ReadFrame as one canonical
//     FrameEvent whose payload is exactly frame.payload().
//  3. While any holder retains the frame its bytes never change, no
//     matter how much pool churn (other frames allocated and released)
//     happens in between — the use-after-release corruption a refcount
//     bug would cause.
//  4. The final release returns the frame to the pool; a further release
//     panics loudly instead of corrupting a recycled frame.
const sharedFrameCorpusDir = "testdata/fuzz/FuzzSharedFrame"

func FuzzSharedFrame(f *testing.F) {
	seeds := sharedFrameSeeds()
	for _, name := range sortedNames(seeds) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSharedFrame(t, data)
	})
}

// fuzzEvent deterministically builds an event from fuzzer bytes,
// spreading them across every field class JSON treats differently:
// strings (escaping, invalid UTF-8 replacement), base64 bytes, numbers,
// times, and nested structs.
func fuzzEvent(data []byte) Event {
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	u64 := func() uint64 {
		var b [8]byte
		copy(b[:], take(8))
		return binary.LittleEndian.Uint64(b[:])
	}
	ev := Event{
		Seq:       u64(),
		Channel:   string(take(int(u64() % 12))),
		Type:      string(take(int(u64() % 12))),
		Collector: string(take(int(u64() % 8))),
		Timestamp: time.Unix(int64(u64()%(1<<33)), int64(u64()%1e9)).UTC(),
		PeerAS:    bgp.ASN(u64()),
		OldState:  uint16(u64()),
		NewState:  uint16(u64()),
	}
	if n := u64() % 5; n > 0 {
		for i := uint64(0); i < n; i++ {
			ev.Path = append(ev.Path, bgp.ASN(u64()))
		}
	}
	ev.Raw = take(int(u64() % 64))
	return ev
}

// checkSharedFrame is the fuzz body, shared with the seed-corpus test.
func checkSharedFrame(t testing.TB, data []byte) {
	script := data
	var s0, s1, s2 byte
	if len(script) > 0 {
		s0 = script[0]
	}
	if len(script) > 1 {
		s1 = script[1]
	}
	if len(script) > 2 {
		s2 = script[2]
	}
	ev := fuzzEvent(data)

	fr, err := newEventFrame(&ev, new(encodeCache))
	if err != nil {
		t.Fatalf("event built from fuzz bytes failed to encode: %v", err)
	}

	// Invariant 1: byte-identical to the per-client encode path.
	var oracle bytes.Buffer
	if err := WriteFrame(&oracle, FrameEvent, &ev); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	if !bytes.Equal(fr.wire, oracle.Bytes()) {
		t.Fatalf("shared frame wire differs from WriteFrame oracle:\n  frame:  %q\n  oracle: %q", fr.wire, oracle.Bytes())
	}

	// Invariant 2: canonical round-trip through the wire codec.
	rd := bytes.NewReader(fr.wire)
	typ, payload, err := ReadFrame(rd)
	if err != nil {
		t.Fatalf("shared frame does not parse: %v", err)
	}
	if typ != FrameEvent {
		t.Fatalf("shared frame parses as type %d", typ)
	}
	if !bytes.Equal(payload, fr.payload()) {
		t.Fatalf("parsed payload differs from frame.payload()")
	}
	if rd.Len() != 0 {
		t.Fatalf("%d trailing bytes after the frame", rd.Len())
	}
	var back Event
	if err := json.Unmarshal(payload, &back); err != nil {
		t.Fatalf("shared payload does not decode: %v", err)
	}
	if back.Seq != ev.Seq {
		t.Fatalf("decoded seq %d, want %d", back.Seq, ev.Seq)
	}

	// Invariant 3: refcount torture. holders extra references are taken,
	// then the script interleaves pool churn (frames created and released
	// from mutated events) with releases; the held bytes must stay stable
	// until the last reference goes.
	snap := append([]byte(nil), fr.wire...)
	holders := 1 + int(s0%7)
	for i := 0; i < holders; i++ {
		fr.retain()
	}
	fr.release() // the "publisher" is done; holders references remain
	warm := new(encodeCache)
	for i := 0; i < holders; i++ {
		churn := int(s1>>(i%8)&3) + 1
		for c := 0; c < churn; c++ {
			evc := fuzzEvent(data)
			evc.Seq = ev.Seq + uint64(i*churn+c) + 1
			other, err := newEventFrame(&evc, warm)
			if err != nil {
				t.Fatalf("churn encode: %v", err)
			}
			if &other.wire[0] == &fr.wire[0] {
				t.Fatalf("pool handed out the wire buffer of a frame with %d live references", holders-i)
			}
			other.release()
		}
		if !bytes.Equal(fr.wire, snap) {
			t.Fatalf("held frame mutated while %d references remained", holders-i)
		}
		fr.release()
	}

	// The churn filled warm with ev's addresses, prefixes and timestamp;
	// encoding ev through it must still give the oracle's bytes.
	rewarm, err := newEventFrame(&ev, warm)
	if err != nil {
		t.Fatalf("warm encode: %v", err)
	}
	if !bytes.Equal(rewarm.wire, oracle.Bytes()) {
		t.Fatalf("shared frame through a warm cache differs from WriteFrame oracle:\n  frame:  %q\n  oracle: %q", rewarm.wire, oracle.Bytes())
	}
	rewarm.release()

	// Invariant 4: the frame is now recycled; releasing again must panic,
	// not silently corrupt whatever the pool hands out next.
	if s2&1 == 1 {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("double release did not panic")
				}
			}()
			fr.release()
		}()
		// The panicked release left refs at -1 on a pooled frame;
		// newEventFrame resets the count on reuse, so the pool stays
		// coherent — prove it by encoding once more.
		again, err := newEventFrame(&ev, warm)
		if err != nil {
			t.Fatalf("encode after recovered double release: %v", err)
		}
		if !bytes.Equal(again.wire, snap) {
			t.Fatalf("re-encode after double release differs")
		}
		again.release()
	}
}

// sharedFrameSeeds are the committed FuzzSharedFrame starting points:
// scripts that reach every branch (single holder, max holders, the
// double-release probe) over empty, ASCII, invalid-UTF-8, and large
// inputs.
func sharedFrameSeeds() map[string][]byte {
	long := bytes.Repeat([]byte("zombie-beacon-84.205.64.0/24 "), 40)
	return map[string][]byte{
		"seed-empty":        {},
		"seed-one-holder":   {0, 0, 0},
		"seed-max-holders":  append([]byte{6, 0xff, 0}, []byte("rrc00 UPDATE 12654")...),
		"seed-double-free":  append([]byte{3, 0xa5, 1}, []byte("zombie rrc06")...),
		"seed-invalid-utf8": {2, 0x5a, 1, 0xff, 0xfe, 0x80, 0x81, 0xc3, 0x28, 0xed, 0xa0, 0x80},
		"seed-long":         append([]byte{5, 0x33, 1}, long...),
	}
}

// TestSharedFrameSeedCorpus keeps the committed FuzzSharedFrame corpus in
// sync with sharedFrameSeeds and proves every seed passes the fuzz body's
// invariants (regenerate with -update-corpus, same flag as FuzzFrame).
func TestSharedFrameSeedCorpus(t *testing.T) {
	seeds := sharedFrameSeeds()
	if *updateCorpus {
		if err := os.MkdirAll(sharedFrameCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			if err := os.WriteFile(filepath.Join(sharedFrameCorpusDir, name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(sharedFrameCorpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, data) {
				t.Fatal("committed corpus entry diverges from sharedFrameSeeds (run with -update-corpus)")
			}
			checkSharedFrame(t, data)
		})
	}
}

// TestPublishEncodeOnceAllocFence is the allocation contract of the
// broadcast path: publishing an update into a steady-state broker
// allocates nothing (appendEvent writes into the pooled frame), an alert
// that falls back to json.Encoder costs at most 6 allocations (the event
// handed to reflection, and one per timestamp in Time.MarshalJSON), and
// neither cost grows with the subscriber count — the proof that fan-out
// shares one encoding instead of performing one per subscriber.
func TestPublishEncodeOnceAllocFence(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	ts := time.Unix(1700000000, 0).UTC()
	update := Event{
		Channel: ChannelUpdates, Type: TypeUpdate, Collector: "rrc00",
		Timestamp: ts, PeerAS: 64500,
		Path: []bgp.ASN{64500, 3356, 12654},
	}
	alert := Event{
		Channel: ChannelZombie, Type: TypeZombie, Collector: "rrc00",
		Timestamp: ts, PeerAS: 64500,
		Alert: &Alert{Path: []bgp.ASN{64500, 3356}, AnnouncedAt: ts, DetectedAt: ts},
	}
	measure := func(ev Event, subs int) (allocs float64, encodesPerPublish float64) {
		b := NewBroker(Config{RingSize: 4, ReplaySize: -1})
		defer b.Close()
		for i := 0; i < subs; i++ {
			if _, _, err := b.Subscribe(Filter{}, PolicyDropOldest, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ { // warm the frame and encoder pools
			b.Publish(ev)
		}
		before := b.metrics.encodeJSON.Value()
		seqBefore := b.Seq()
		allocs = testing.AllocsPerRun(200, func() { b.Publish(ev) })
		published := b.Seq() - seqBefore
		encodesPerPublish = float64(b.metrics.encodeJSON.Value()-before) / float64(published)
		return allocs, encodesPerPublish
	}
	for _, row := range []struct {
		name  string
		ev    Event
		limit float64
	}{
		{"update", update, 0},
		{"alert", alert, 6},
	} {
		one, encOne := measure(row.ev, 1)
		many, encMany := measure(row.ev, 256)
		t.Logf("%s allocs/publish: 1 sub = %.1f, 256 subs = %.1f", row.name, one, many)
		if one > row.limit {
			t.Errorf("%s publish with 1 subscriber costs %.1f allocs, want <= %.0f", row.name, one, row.limit)
		}
		if many > one+1 {
			t.Errorf("%s publish allocs grew with subscribers: %.1f at 1 sub, %.1f at 256", row.name, one, many)
		}
		if encOne != 1 || encMany != 1 {
			t.Errorf("%s encodes per publish = %.2f (1 sub) / %.2f (256 subs), want exactly 1 regardless of fan-out", row.name, encOne, encMany)
		}
	}
}
