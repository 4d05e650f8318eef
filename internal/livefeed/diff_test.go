package livefeed

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/eventstore"
)

// This file is the differential proof of the encode-once broadcast
// rework: the same seeded scenario is replayed twice — once recording
// the shared frame bytes every subscriber dequeues (the new zero-copy
// path, what the server writes via writev), once re-encoding every
// dequeued event per subscriber through WriteFrame (the old server write
// loop, kept as the encodeEachSubscriber oracle) — and every
// subscriber's byte stream, sequence numbers, drop counts, and terminal
// status must be identical, across drop-oldest/kick-slowest/block
// policies, mid-stream subscribes, resume-from-sequence (with and
// without a journal), and mid-stream closes.

// diffMode selects how a scenario records deliveries.
type diffMode int

const (
	// modeFrames records Frame.Wire() — the shared encode-once bytes.
	modeFrames diffMode = iota
	// modeOracle re-encodes each dequeued event with WriteFrame, exactly
	// what the pre-rework server did once per subscriber per event.
	modeOracle
)

func (m diffMode) String() string {
	if m == modeOracle {
		return "oracle"
	}
	return "frames"
}

// encodeEachSubscriber is the old write path kept as the differential
// oracle: an independent json.Marshal per subscriber per event.
func encodeEachSubscriber(t testing.TB, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range evs {
		if err := WriteFrame(&buf, FrameEvent, &evs[i]); err != nil {
			t.Fatalf("oracle encode: %v", err)
		}
	}
	return buf.Bytes()
}

var (
	diffCollectors = []string{"rrc00", "rrc01", "rrc06", "rrc10"}
	diffPeers      = []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("192.0.2.9"),
		netip.MustParseAddr("2001:db8::1"),
	}
	diffPrefixes = []netip.Prefix{
		netip.MustParsePrefix("84.205.64.0/24"),
		netip.MustParsePrefix("84.205.65.0/24"),
		netip.MustParsePrefix("84.205.0.0/16"),
		netip.MustParsePrefix("93.175.144.0/24"),
		netip.MustParsePrefix("2001:7fb:fe00::/48"),
	}
)

func pickSubset(rng *rand.Rand, vals []string) []string {
	out := []string{vals[rng.Intn(len(vals))]}
	for _, v := range vals {
		if rng.Intn(3) == 0 && !containsString(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func randomDiffFilter(rng *rand.Rand) Filter {
	if rng.Intn(100) < 40 {
		return Filter{}
	}
	var f Filter
	if rng.Intn(2) == 0 {
		f.Channels = pickSubset(rng, []string{ChannelUpdates, ChannelZombie})
	}
	if rng.Intn(3) == 0 {
		f.Collectors = pickSubset(rng, diffCollectors)
	}
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			f.PeerAS = append(f.PeerAS, bgp.ASN(64500+rng.Intn(8)))
		}
	}
	if rng.Intn(4) == 0 {
		f.Types = pickSubset(rng, []string{TypeUpdate, TypeState, TypeZombie})
	}
	if rng.Intn(4) == 0 {
		f.Prefixes = []netip.Prefix{diffPrefixes[rng.Intn(len(diffPrefixes))]}
	}
	return f
}

func randomDiffEvent(rng *rand.Rand, i int) Event {
	ts := time.Unix(1700000000+int64(i), int64(rng.Intn(1e9))).UTC()
	collector := diffCollectors[rng.Intn(len(diffCollectors))]
	peerAS := bgp.ASN(64500 + rng.Intn(8))
	peer := diffPeers[rng.Intn(len(diffPeers))]
	switch {
	case rng.Intn(100) < 15: // zombie alert
		p := diffPrefixes[rng.Intn(len(diffPrefixes))]
		return Event{
			Channel: ChannelZombie, Type: TypeZombie, Collector: collector,
			Timestamp: ts, PeerAS: peerAS, Peer: peer,
			Alert: &Alert{
				Prefix: p, Path: []bgp.ASN{peerAS, 12654},
				AnnouncedAt: ts.Add(-90 * time.Minute), DetectedAt: ts,
				IntervalStart: ts.Add(-2 * time.Hour), IntervalWithdraw: ts.Add(-30 * time.Minute),
				Duplicate: rng.Intn(4) == 0,
			},
		}
	case rng.Intn(100) < 10: // session state change
		return Event{
			Channel: ChannelUpdates, Type: TypeState, Collector: collector,
			Timestamp: ts, PeerAS: peerAS, Peer: peer,
			OldState: 6, NewState: uint16(1 + rng.Intn(5)),
		}
	}
	ev := Event{
		Channel: ChannelUpdates, Type: TypeUpdate, Collector: collector,
		Timestamp: ts, PeerAS: peerAS, Peer: peer,
		Path: []bgp.ASN{peerAS, 3356, 12654},
	}
	for k := rng.Intn(3); k > 0; k-- {
		ev.Withdrawals = append(ev.Withdrawals, diffPrefixes[rng.Intn(len(diffPrefixes))])
	}
	if rng.Intn(2) == 0 {
		ev.Announcements = []Announcement{{
			NextHop:  peer,
			Prefixes: []netip.Prefix{diffPrefixes[rng.Intn(len(diffPrefixes))]},
		}}
	}
	if rng.Intn(4) == 0 {
		ev.Raw = []byte{0x5a, byte(i), byte(rng.Intn(256))}
	}
	return ev
}

// memJournal is a deterministic in-memory Journal for resume scenarios.
// On every append it verifies that the shared encoding the broker hands
// over is byte-identical to an independent marshal of the event, and nil
// for an event with a record. It stores every event as its JSON (the
// scenario's raw records are not MRT), so a catch-up copies the encoding.
type memJournal struct {
	evs      []Event
	payloads [][]byte
	mismatch error
}

func (j *memJournal) Append(ev Event, payload []byte) error {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameEvent, &ev); err != nil {
		return err
	}
	want := buf.Bytes()[frameHeaderLen:]
	if ev.hasRecord() && payload != nil || !ev.hasRecord() && !bytes.Equal(payload, want) {
		if j.mismatch == nil {
			j.mismatch = fmt.Errorf("seq %d: shared payload %q != independent marshal %q", ev.Seq, payload, want)
		}
	}
	j.evs = append(j.evs, ev)
	j.payloads = append(j.payloads, bytes.TrimSuffix(want, []byte{'\n'}))
	return nil
}

func (j *memJournal) Replay(fromSeq, toSeq uint64, fn func(eventstore.Event) error) error {
	for i, ev := range j.evs {
		if ev.Seq > fromSeq && ev.Seq <= toSeq {
			if err := fn(eventstore.Event{
				Seq: ev.Seq, Time: ev.Timestamp, Collector: ev.Collector,
				PeerAS: uint32(ev.PeerAS), PeerAddr: ev.Peer, Prefixes: ev.Prefixes(),
				Kind: eventstore.KindJSON, Payload: j.payloads[i],
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *memJournal) FirstSeq() uint64 {
	if len(j.evs) == 0 {
		return 0
	}
	return j.evs[0].Seq
}

func (j *memJournal) LastSeq() uint64 {
	if len(j.evs) == 0 {
		return 0
	}
	return j.evs[len(j.evs)-1].Seq
}

// diffSub is one scenario subscriber's recorded view of the stream.
type diffSub struct {
	sub    *Subscriber
	filter Filter
	policy Policy
	stream []byte
	seqs   []uint64
	status string
	drops  uint64
	lost   uint64
}

// record dequeues one frame (non-blocking) and appends its bytes under
// the scenario's mode. false means nothing was available.
func (d *diffSub) record(t testing.TB, mode diffMode) bool {
	fr, ok := d.sub.TryNextFrame()
	if !ok {
		return false
	}
	ev := fr.f.ev
	switch mode {
	case modeFrames:
		d.stream = append(d.stream, fr.Wire()...)
	case modeOracle:
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameEvent, &ev); err != nil {
			t.Fatalf("oracle re-encode seq %d: %v", ev.Seq, err)
		}
		d.stream = append(d.stream, buf.Bytes()...)
	}
	d.seqs = append(d.seqs, ev.Seq)
	fr.Release()
	return true
}

// runDiffScenario replays the seeded scenario script under one recording
// mode. The script is driven entirely by the seed — publishes, drains,
// mid-stream subscribes (live / resume / from-start), and closes — so
// two runs with the same seed perform identical broker operations.
func runDiffScenario(t testing.TB, seed int64, mode diffMode) (subs []*diffSub, head uint64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{RingSize: 4 + rng.Intn(28), ReplaySize: 16 + rng.Intn(112)}
	var mj *memJournal
	switch seed % 3 {
	case 0, 1:
		mj = &memJournal{}
		cfg.Journal = mj
	}
	b := NewBroker(cfg)
	defer b.Close()

	newPolicy := func() Policy {
		switch rng.Intn(4) {
		case 0:
			return PolicyKickSlowest
		case 1:
			return PolicyBlock
		default:
			return PolicyDropOldest
		}
	}
	subscribe := func(resume uint64, fromStart bool) {
		f := randomDiffFilter(rng)
		pol := newPolicy()
		sub, lost, err := b.SubscribeFrom(f, pol, resume, fromStart)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		subs = append(subs, &diffSub{sub: sub, filter: f, policy: pol, status: "open", lost: lost})
	}
	for n := 2 + rng.Intn(4); n > 0; n-- {
		subscribe(0, false)
	}

	published := 0
	for step := 0; step < 250; step++ {
		switch r := rng.Intn(100); {
		case r < 55: // publish one event
			// A full block-policy ring would stall the single-threaded
			// script: drain it first (deterministically, in index order).
			for _, d := range subs {
				if d.policy != PolicyBlock || d.status != "open" {
					continue
				}
				for subQueued(d.sub) == len(d.sub.buf) {
					if !d.record(t, mode) {
						break
					}
				}
			}
			b.Publish(randomDiffEvent(rng, published))
			published++
		case r < 75: // drain a burst from one subscriber
			d := subs[rng.Intn(len(subs))]
			for k := 1 + rng.Intn(8); k > 0; k-- {
				if !d.record(t, mode) {
					break
				}
			}
		case r < 85: // mid-stream subscribe: live, resume, or from-start
			if len(subs) >= 12 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				subscribe(0, false)
			case 1:
				var resume uint64
				if head := b.Seq(); head > 0 {
					resume = uint64(rng.Int63n(int64(head)))
				}
				subscribe(resume, false)
			case 2:
				subscribe(0, true)
			}
		case r < 92: // close one mid-stream (remaining buffer still drains)
			d := subs[rng.Intn(len(subs))]
			if d.status == "open" {
				d.sub.Close()
				d.status = "closed"
			}
		default: // round-robin drain one from everyone
			for _, d := range subs {
				d.record(t, mode)
			}
		}
	}

	// Final drain + terminal status.
	for _, d := range subs {
		for d.record(t, mode) {
		}
		_, err := d.sub.NextFrameTimeout(time.Millisecond)
		switch {
		case errors.Is(err, errIdle):
			// still open and empty
		case errors.Is(err, ErrKicked):
			d.status = "kicked"
		case errors.Is(err, ErrClosed):
			d.status = "closed"
		case err != nil:
			t.Fatalf("final drain: %v", err)
		default:
			t.Fatalf("final drain returned an event after the ring was empty")
		}
		d.drops = subDrops(d.sub)
	}
	if mj != nil && mj.mismatch != nil {
		t.Fatalf("journal shared-encoding mismatch: %v", mj.mismatch)
	}
	return subs, b.Seq()
}

// TestDifferentialFanout replays a 50-seed scenario matrix through the
// broadcast path and the per-subscriber-encode oracle and requires
// byte-identical streams, identical sequence numbers, and identical
// backpressure outcomes — then independently re-parses every broadcast
// stream to prove the frames decode to exactly the recorded sequence and
// pass the subscriber's filter.
func TestDifferentialFanout(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			frames, headF := runDiffScenario(t, seed, modeFrames)
			oracle, headO := runDiffScenario(t, seed, modeOracle)
			if headF != headO {
				t.Fatalf("head diverged: frames %d, oracle %d", headF, headO)
			}
			if len(frames) != len(oracle) {
				t.Fatalf("subscriber count diverged: frames %d, oracle %d", len(frames), len(oracle))
			}
			for i := range frames {
				f, o := frames[i], oracle[i]
				if f.status != o.status {
					t.Errorf("sub %d status: frames %q, oracle %q", i, f.status, o.status)
				}
				if f.drops != o.drops {
					t.Errorf("sub %d drops: frames %d, oracle %d", i, f.drops, o.drops)
				}
				if f.lost != o.lost {
					t.Errorf("sub %d lost: frames %d, oracle %d", i, f.lost, o.lost)
				}
				if len(f.seqs) != len(o.seqs) {
					t.Fatalf("sub %d delivered %d events via frames, %d via oracle", i, len(f.seqs), len(o.seqs))
				}
				for j := range f.seqs {
					if f.seqs[j] != o.seqs[j] {
						t.Fatalf("sub %d delivery %d: seq %d via frames, %d via oracle", i, j, f.seqs[j], o.seqs[j])
					}
				}
				if !bytes.Equal(f.stream, o.stream) {
					t.Fatalf("sub %d (policy %v, %d events): broadcast byte stream differs from per-subscriber encode",
						i, f.policy, len(f.seqs))
				}
				// Independent decode: the shared bytes must parse back as
				// the exact events this subscriber was owed.
				rd := bytes.NewReader(f.stream)
				for j := 0; ; j++ {
					ft, payload, err := ReadFrame(rd)
					if err != nil {
						if j != len(f.seqs) {
							t.Fatalf("sub %d stream ended after %d frames (%v), want %d", i, j, err, len(f.seqs))
						}
						break
					}
					if ft != FrameEvent {
						t.Fatalf("sub %d frame %d has type %d", i, j, ft)
					}
					var ev Event
					if err := json.Unmarshal(payload, &ev); err != nil {
						t.Fatalf("sub %d frame %d: %v", i, j, err)
					}
					if ev.Seq != f.seqs[j] {
						t.Fatalf("sub %d frame %d decodes to seq %d, want %d", i, j, ev.Seq, f.seqs[j])
					}
					if !f.filter.Match(&ev) {
						t.Fatalf("sub %d frame %d (seq %d) does not match the subscriber's filter", i, j, ev.Seq)
					}
				}
			}
		})
	}
}

// TestDifferentialBlockingStall is the concurrent complement: under real
// block-policy stalls (tiny rings, blocking consumers, a publisher that
// must wait) every consumer still receives the complete stream, and the
// broadcast bytes equal the per-subscriber-encode oracle built from the
// delivered events.
func TestDifferentialBlockingStall(t *testing.T) {
	const n, consumers = 400, 3
	run := func(mode diffMode) [][]byte {
		b := NewBroker(Config{RingSize: 8, ReplaySize: -1})
		defer b.Close()
		streams := make([][]byte, consumers)
		events := make([][]Event, consumers)
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			sub, _, err := b.Subscribe(Filter{}, PolicyBlock, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for len(events[c]) < n {
					fr, err := sub.NextFrameTimeout(0)
					if err != nil {
						t.Errorf("consumer %d: %v", c, err)
						return
					}
					events[c] = append(events[c], fr.f.ev)
					if mode == modeFrames {
						streams[c] = append(streams[c], fr.Wire()...)
					}
					fr.Release()
				}
			}()
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			b.Publish(randomDiffEvent(rng, i))
		}
		wg.Wait()
		if mode == modeOracle {
			for c := 0; c < consumers; c++ {
				streams[c] = encodeEachSubscriber(t, events[c])
			}
		}
		for c := 0; c < consumers; c++ {
			for i, ev := range events[c] {
				if ev.Seq != uint64(i+1) {
					t.Fatalf("consumer %d event %d has seq %d: block policy lost or reordered", c, i, ev.Seq)
				}
			}
		}
		return streams
	}
	frames := run(modeFrames)
	oracle := run(modeOracle)
	for c := range frames {
		if !bytes.Equal(frames[c], oracle[c]) {
			t.Fatalf("consumer %d: broadcast bytes differ from per-subscriber encode under block stalls", c)
		}
	}
}
