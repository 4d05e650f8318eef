package livefeed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/eventstore"
	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
)

// formatClient is one subscription dialled twice: through Conn, which asks
// for Record frames, and as a client that predates them, which never sets
// Subscribe.Format and reads raw Event frames.
type formatClient struct {
	filter Filter
	resume uint64 // 0: from start
	conn   *Conn
	old    net.Conn
	oldBuf *bufio.Reader
}

func dialFormats(t *testing.T, addr string, f Filter, resume uint64) *formatClient {
	t.Helper()
	fc := &formatClient{filter: f, resume: resume}
	var err error
	fc.conn, err = DialWith(addr, f, PolicyBlock, resume, DialOptions{FromStart: resume == 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.conn.Close() })
	if fc.old, err = net.Dial("tcp", addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.old.Close() })
	fc.oldBuf = bufio.NewReader(fc.old)
	var hello Hello
	if err := readFrameInto(fc.oldBuf, FrameHello, &hello); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(fc.old, FrameSubscribe, Subscribe{
		Filter: f, Policy: PolicyBlock.String(), ResumeFrom: resume, FromStart: resume == 0,
	}); err != nil {
		t.Fatal(err)
	}
	var ack Ack
	if err := readFrameInto(fc.oldBuf, FrameAck, &ack); err != nil {
		t.Fatal(err)
	}
	return fc
}

// TestDifferentialFormats: one broker serves the same events to
// subscribers of both frame formats over TCP, across a journal range, a
// replay-window range and live delivery, with the zero filter and a
// peer/prefix filter. Both formats must deliver exactly the sequence
// numbers the filter selects; Conn.Next must return events
// reflect.DeepEqual to the JSON decode of the old-style client's frames;
// and those frames must be byte-identical to WriteFrame of the events as
// published, the Event frames every server has sent.
func TestDifferentialFormats(t *testing.T) {
	data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 64))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(data.Updates)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eventstore.Open(eventstore.Options{Dir: t.TempDir(), SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := NewBroker(Config{RingSize: 1 << 16, ReplaySize: 64, Journal: &StoreJournal{Store: st}})
	defer b.Close()
	published, _, err := b.Subscribe(Filter{}, PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, b, true)
	pipe := NewPipeline(b, data.Intervals, 0)

	var first Event
	for _, sr := range stream {
		if ev, ok := EventFromRecord(sr.Collector, sr.Rec, false); ok && len(ev.Announcements) > 0 {
			first = ev
			break
		}
	}
	p := first.Announcements[0].Prefixes[0]
	wide := netip.PrefixFrom(p.Addr(), max(p.Bits()-8, 0)).Masked()
	filters := []Filter{{}, {PeerAS: []bgp.ASN{first.PeerAS}, Prefixes: []netip.Prefix{wide}}}

	n := len(stream)
	ingest := func(from, to int) {
		for _, sr := range stream[from:to] {
			pipe.Ingest(sr)
		}
	}
	var clients []*formatClient
	ingest(0, n/3)
	for _, f := range filters { // journal, then window, then live
		clients = append(clients, dialFormats(t, addr, f, 0))
	}
	ingest(n/3, 2*n/3)
	resume := b.Seq() - 40
	for _, f := range filters { // window only: the window holds 64
		clients = append(clients, dialFormats(t, addr, f, resume))
	}
	ingest(2*n/3, n)
	pipe.Flush(data.Config.TrackUntil)
	// A last event every filter passes tells each reader where to stop.
	last := b.Publish(Event{
		Channel: ChannelUpdates, Type: TypeUpdate, Collector: "end", Timestamp: first.Timestamp,
		PeerAS: first.PeerAS, Peer: first.Peer,
		Announcements: []Announcement{{NextHop: first.Peer, Prefixes: []netip.Prefix{wide}}},
	})

	oracle := make(map[uint64]Event, last)
	for len(oracle) < int(last) {
		ev, err := nextTimeout(published, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		oracle[ev.Seq] = ev
	}
	var alerts, records int
	for _, ev := range oracle {
		if ev.Channel == ChannelZombie {
			alerts++
		} else if ev.hasRecord() {
			records++
		}
	}
	if alerts == 0 || records == 0 {
		t.Fatalf("scenario published %d alerts and %d records, want both", alerts, records)
	}
	t.Logf("%d events: %d records, %d alerts; journal ends the window at %d", last, records, alerts, b.Seq()-64)

	for i, fc := range clients {
		var want []uint64
		for seq := fc.resume + 1; seq <= last; seq++ {
			if ev := oracle[seq]; fc.filter.Match(&ev) {
				want = append(want, seq)
			}
		}
		var got []Event
		for len(got) == 0 || got[len(got)-1].Seq < last {
			ev, err := fc.conn.Next()
			if err != nil {
				t.Fatalf("client %d Conn: %v", i, err)
			}
			got = append(got, ev)
		}
		var hdr [frameHeaderLen]byte
		for j := 0; ; j++ {
			typ, payload, err := readFrame(fc.oldBuf, &hdr, nil)
			if err != nil {
				t.Fatalf("client %d old-style: %v", i, err)
			}
			if typ == FrameHeartbeat {
				j--
				continue
			}
			var ev Event
			if typ != FrameEvent || json.Unmarshal(payload, &ev) != nil {
				t.Fatalf("client %d old-style frame %d: %s %q", i, j, typ, payload)
			}
			var oracleFrame bytes.Buffer
			want := oracle[ev.Seq]
			if err := WriteFrame(&oracleFrame, FrameEvent, &want); err != nil {
				t.Fatal(err)
			}
			if frame := appendFrame(nil, typ, payload); !bytes.Equal(frame, oracleFrame.Bytes()) {
				t.Fatalf("client %d old-style seq %d: frame\n%q\nwant\n%q", i, ev.Seq, frame, oracleFrame.Bytes())
			}
			if j >= len(got) || got[j].Seq != ev.Seq {
				t.Fatalf("client %d: old-style frame %d is seq %d, Conn diverges", i, j, ev.Seq)
			}
			if !reflect.DeepEqual(got[j], ev) {
				t.Fatalf("client %d seq %d: Conn event\n%+v\nEvent frame decodes to\n%+v", i, ev.Seq, got[j], ev)
			}
			if ev.Seq == last {
				if j+1 != len(got) {
					t.Fatalf("client %d: Conn got %d events, old-style %d", i, len(got), j+1)
				}
				break
			}
		}
		gotSeqs := make([]uint64, len(got))
		for j, ev := range got {
			gotSeqs[j] = ev.Seq
		}
		if !reflect.DeepEqual(gotSeqs, want) {
			t.Fatalf("client %d (filter %+v, resume %d): %d events, want %d", i, fc.filter, fc.resume, len(gotSeqs), len(want))
		}
		t.Logf("client %d (resume %d, filter %+v): %d events", i, fc.resume, fc.filter, len(got))
	}

	formats := map[string]int{}
	for _, s := range b.Sessions() {
		formats[s.Format]++
	}
	if formats[FormatMRT] != len(clients) || formats[FormatJSON] != len(clients)+1 {
		t.Fatalf("session formats %v, want %d mrt and %d json", formats, len(clients), len(clients)+1)
	}
	if b.metrics.encodeMRT.Value() == 0 {
		t.Fatal("no Record frame was built")
	}
}

// fakeFeed serves every connection to the returned address with a
// handshake and then serve.
func fakeFeed(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if WriteFrame(conn, FrameHello, Hello{Version: ProtocolVersion}) != nil {
					return
				}
				if _, _, err := ReadFrame(conn); err != nil {
					return
				}
				if WriteFrame(conn, FrameAck, Ack{}) != nil {
					return
				}
				serve(conn)
			}()
		}
	}()
	return l.Addr().String()
}

// eventBatch renders events first..first+n-1 as one write's worth of
// Event frames of varied sizes.
func eventBatch(t *testing.T, first, n int) []byte {
	var evs []Event
	for seq := first; seq < first+n; seq++ {
		ev, _ := ownedEvents(seq % 8)
		ev.Seq = uint64(seq)
		ev.Raw = make([]byte, 40+seq%37)
		evs = append(evs, ev)
	}
	return frameStream(t, evs...)
}

// TestConnIdleTimeoutAfterBurst: the idle deadline is armed only by reads
// that reach the socket, and a burst served from the read buffer must
// not leave it unarmed: once the burst is consumed, a silent connection
// still fails with ErrIdleTimeout after the idle period.
func TestConnIdleTimeoutAfterBurst(t *testing.T) {
	const idle = 150 * time.Millisecond
	burst := eventBatch(t, 1, 50)
	addr := fakeFeed(t, func(conn net.Conn) {
		conn.Write(burst)
		io.Copy(io.Discard, conn) // silent until the client closes
	})
	c, err := DialWith(addr, Filter{}, PolicyDropOldest, 0, DialOptions{IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Next(); err != nil {
			t.Fatalf("event %d: %v", i+1, err)
		}
	}
	start := time.Now()
	_, err = c.Next()
	if waited := time.Since(start); !errors.Is(err, ErrIdleTimeout) || waited < idle*9/10 {
		t.Fatalf("Next after the burst: %v after %v, want ErrIdleTimeout after %v", err, waited, idle)
	}
}

// TestConnIdleTimeoutNotFromBuffer: a consumer slower than the feed reads
// batches out of its buffer for longer than the idle period between
// socket reads. A deadline armed at one socket read and not re-armed
// before the next (say, before a payload read after a buffered header)
// would expire in the middle of a healthy stream.
func TestConnIdleTimeoutNotFromBuffer(t *testing.T) {
	const (
		idle    = 100 * time.Millisecond
		batches = 8
		size    = 16
	)
	var stream [][]byte
	for i := 0; i < batches; i++ {
		stream = append(stream, eventBatch(t, 1+i*size, size))
	}
	addr := fakeFeed(t, func(conn net.Conn) {
		for _, batch := range stream {
			if _, err := conn.Write(batch); err != nil {
				return
			}
			time.Sleep(idle / 2)
		}
		io.Copy(io.Discard, conn)
	})
	c, err := DialWith(addr, Filter{}, PolicyDropOldest, 0, DialOptions{IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for seq := 1; seq <= batches*size; seq++ {
		ev, err := c.Next()
		if err != nil || ev.Seq != uint64(seq) {
			t.Fatalf("event %d: seq %d, %v", seq, ev.Seq, err)
		}
		time.Sleep(idle / 10) // a batch takes longer than idle to consume
	}
}

// rfcVectorRecords reads every record of the hand-assembled RFC vector
// files the mrt package tests against: '#' starts a comment, "[name]" a
// record, everything else is hex bytes.
func rfcVectorRecords(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../mrt/testdata/rfc*.txt")
	if err != nil || len(paths) != 4 {
		tb.Fatalf("RFC vector files: %v %v", paths, err)
	}
	out := make(map[string][]byte)
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		name := ""
		for _, line := range strings.Split(string(text), "\n") {
			line, _, _ = strings.Cut(line, "#")
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
				name = filepath.Base(path) + line
				continue
			}
			b, err := hex.DecodeString(strings.Join(strings.Fields(line), ""))
			if err != nil {
				tb.Fatalf("%s: %v", path, err)
			}
			out[name] = append(out[name], b...)
		}
	}
	return out
}

// FuzzRecordFrame decodes arbitrary Record frame bodies through Conn.Next:
// never a panic, and wherever the body's record decodes to a BGP4MP
// message or state change, the event is EventFromRecord of that record
// with the body's sequence number and collector, the record as Raw, and
// nil Withdrawals where there are none (the Event frame's decode). Every
// other body is an ErrBadFrame. Seeds are the RFC vector records.
func FuzzRecordFrame(f *testing.F) {
	recs := rfcVectorRecords(f)
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		f.Add(appendRecordFrame(nil, uint64(i+1), "rrc00", recs[name])[frameHeaderLen:])
		f.Add(appendRecordFrame(nil, 1<<40, "", recs[name])[frameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := &Conn{br: bufio.NewReader(bytes.NewReader(appendFrame(nil, FrameRecord, body))), rec: mrt.Decoder{Borrow: true}}
		got, err := c.Next()
		want, ok := recordFrameOracle(body)
		if !ok {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("undecodable body: Next = %+v, %v; want ErrBadFrame", got, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decodable body refused: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Next = %+v\nwant    %+v", got, want)
		}
	})
}

// recordFrameOracle parses a Record frame body independently of
// decodeRecordFrame and builds its event with an owning decoder.
func recordFrameOracle(body []byte) (Event, bool) {
	if len(body) < 8 {
		return Event{}, false
	}
	n, k := binary.Uvarint(body[8:])
	if k <= 0 || n > uint64(len(body)-8-k) {
		return Event{}, false
	}
	collector, raw := string(body[8+k:8+k+int(n)]), body[8+k+int(n):]
	rec, err := new(mrt.Decoder).DecodeFramed(raw)
	if err != nil || !Streamable(rec) {
		return Event{}, false
	}
	ev, _ := EventFromRecord(collector, rec, false)
	ev.Seq = binary.BigEndian.Uint64(body)
	ev.Raw = raw
	if len(ev.Withdrawals) == 0 {
		ev.Withdrawals = nil
	}
	return ev, true
}

// TestRecordFrameSeeds: the FuzzRecordFrame seeds that hold a BGP4MP
// record decode, so the fuzz target starts from the checked branch.
func TestRecordFrameSeeds(t *testing.T) {
	decoded := 0
	for name, raw := range rfcVectorRecords(t) {
		body := appendRecordFrame(nil, 7, "rrc21", raw)[frameHeaderLen:]
		ev, ok := recordFrameOracle(body)
		if !ok {
			continue
		}
		got, err := decodeRecordFrame(body, &mrt.Decoder{Borrow: true}, new(decodeCache))
		if err != nil || !reflect.DeepEqual(got, ev) {
			t.Fatalf("%s: %+v, %v; want %+v", name, got, err, ev)
		}
		decoded++
	}
	if decoded < 4 {
		t.Fatalf("%d vector records decode as BGP4MP, want at least 4", decoded)
	}
}

// TestConnNextRecordAllocFence is the allocation contract of a Record
// frame read: the slices the Event owns (path, announcements and
// withdrawals sharing one prefix array, raw bytes) and nothing per frame
// besides; the collector name comes from the connection's cache.
func TestConnNextRecordAllocFence(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	raw := rfcVectorRecords(t)["rfc4271_bgp4mp.txt[update-ipv4]"]
	if raw == nil {
		t.Fatal("missing vector update-ipv4")
	}
	frame := appendRecordFrame(nil, 1, "rrc00", raw)
	c := &Conn{br: bufio.NewReader(&repeatReader{frame: frame}), rec: mrt.Decoder{Borrow: true}}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per record frame: %.1f", allocs)
	if allocs > 4 {
		t.Errorf("Conn.Next costs %.1f allocs per record frame, want <= 4", allocs)
	}
}
