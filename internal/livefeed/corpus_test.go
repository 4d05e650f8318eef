package livefeed

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// Regenerate the committed seed corpus with:
//
//	go test ./internal/livefeed -run TestFuzzSeedCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the seed corpus under testdata/fuzz/FuzzFrame")

const corpusDir = "testdata/fuzz/FuzzFrame"

// corpusSeeds builds the committed FuzzFrame seeds: well-formed frames of
// every type the protocol speaks, so mutation starts from deep inside the
// format (valid CRCs, real JSON shapes) rather than rediscovering the
// header from zeros.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	frame := func(typ FrameType, v any) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	hello := frame(FrameHello, Hello{Version: ProtocolVersion, Server: "zombied/1", Head: 42})
	subscribe := frame(FrameSubscribe, Subscribe{
		Filter: Filter{
			Channels:   []string{ChannelZombie},
			Collectors: []string{"rrc00", "rrc01"},
			PeerAS:     []bgp.ASN{25091},
			Prefixes:   []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1::/32")},
			Types:      []string{TypeZombie},
		},
		Policy:     PolicyKickSlowest.String(),
		ResumeFrom: 7,
		FromStart:  false,
	})
	fromStart := frame(FrameSubscribe, Subscribe{FromStart: true})
	ack := frame(FrameAck, Ack{Head: 42, Lost: 3})
	errFrame := frame(FrameError, ErrorFrame{Message: ErrKicked.Error()})

	ts := time.Date(2025, 5, 1, 12, 0, 0, 0, time.UTC)
	update := frame(FrameEvent, Event{
		Seq: 9, Channel: ChannelUpdates, Type: TypeUpdate,
		Collector: "rrc00", Timestamp: ts,
		PeerAS: 25091, Peer: netip.MustParseAddr("192.0.2.1"),
		Path: []bgp.ASN{25091, 8298, 210312},
		Announcements: []Announcement{{
			NextHop:  netip.MustParseAddr("192.0.2.1"),
			Prefixes: []netip.Prefix{netip.MustParsePrefix("93.175.146.0/24")},
		}},
		Withdrawals: []netip.Prefix{netip.MustParsePrefix("93.175.147.0/24")},
		Raw:         []byte{0xde, 0xad, 0xbe, 0xef},
	})
	alert := frame(FrameEvent, Event{
		Seq: 10, Channel: ChannelZombie, Type: TypeZombie,
		Collector: "rrc00", Timestamp: ts,
		PeerAS: 25091, Peer: netip.MustParseAddr("2001:db8::1"),
		Alert: &Alert{
			Prefix:           netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
			Path:             []bgp.ASN{25091, 8298},
			AnnouncedAt:      ts.Add(-90 * time.Minute),
			DetectedAt:       ts,
			IntervalStart:    ts.Add(-2 * time.Hour),
			IntervalWithdraw: ts.Add(-100 * time.Minute),
			Duplicate:        true,
		},
	})
	heartbeat := frame(FrameHeartbeat, Heartbeat{Head: 99})
	raw, err := mrt.AppendRecord(nil, sessionDown(ts))
	if err != nil {
		t.Fatal(err)
	}
	record := appendRecordFrame(nil, 11, "rrc00", raw)

	// A whole handshake plus stream on one connection: mutations that
	// break mid-stream framing start here.
	var session []byte
	for _, b := range [][]byte{hello, subscribe, ack, update, heartbeat, alert} {
		session = append(session, b...)
	}

	return map[string][]byte{
		"seed-hello":      hello,
		"seed-subscribe":  subscribe,
		"seed-from-start": fromStart,
		"seed-ack":        ack,
		"seed-error":      errFrame,
		"seed-event":      update,
		"seed-alert":      alert,
		"seed-heartbeat":  heartbeat,
		"seed-record":     record,
		"seed-session":    session,
	}
}

// corpusEntry renders data in the `go test fuzz v1` single-[]byte format
// FuzzFrame consumes.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// parseCorpusEntry is the inverse, for validating committed files.
func parseCorpusEntry(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := strings.SplitN(string(raw), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("bad corpus header %q", lines[0])
	}
	body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("bad corpus literal: %v", err)
	}
	return []byte(s)
}

// TestFuzzSeedCorpus keeps the committed seed corpus in sync with
// corpusSeeds and proves every seed decodes end-to-end: every frame reads
// back with a matching payload struct, so the fuzzer starts from inputs
// that reach past the header checks.
func TestFuzzSeedCorpus(t *testing.T) {
	seeds := corpusSeeds(t)
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			if err := os.WriteFile(filepath.Join(corpusDir, name), corpusEntry(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(corpusDir, name))
			if err != nil {
				t.Fatalf("%v (run with -update-corpus to regenerate)", err)
			}
			if got := parseCorpusEntry(t, raw); !bytes.Equal(got, data) {
				t.Fatal("committed corpus entry diverges from corpusSeeds (run with -update-corpus)")
			}
			r := bytes.NewReader(data)
			frames := 0
			for {
				typ, payload, err := ReadFrame(r)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("seed does not decode: %v", err)
				}
				var v any
				switch typ {
				case FrameRecord:
					if _, err := decodeRecordFrame(payload, &mrt.Decoder{Borrow: true}, nil); err != nil {
						t.Fatalf("seed record payload does not decode: %v", err)
					}
					frames++
					continue
				case FrameHello:
					v = &Hello{}
				case FrameSubscribe:
					v = &Subscribe{}
				case FrameAck:
					v = &Ack{}
				case FrameError:
					v = &ErrorFrame{}
				case FrameEvent:
					v = &Event{}
				case FrameHeartbeat:
					v = &Heartbeat{}
				default:
					t.Fatalf("seed contains unknown frame type %s", typ)
				}
				if err := json.Unmarshal(payload, v); err != nil {
					t.Fatalf("seed %s payload does not decode: %v", typ, err)
				}
				frames++
			}
			if frames == 0 {
				t.Fatal("seed decoded zero frames")
			}
		})
	}
}

// sortedNames returns a seed map's names in order. A fuzz target adds its
// seeds in this order, so seed#N names the same input on every run and a
// failing seed#N can be replayed by name.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
