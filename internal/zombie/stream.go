package zombie

import (
	"net/netip"
	"slices"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// StreamDetector is the real-time variant of the detection methodology —
// the paper's §6 "Real-time detection of BGP zombies" future-work item.
// Instead of post-processing archives, it consumes collector records as
// they arrive and emits a ZombieEvent the moment a (peer, prefix) passes
// the detection threshold after a withdrawal, so operators of infected
// ASes can be notified while the stuck route is still doing damage.
//
// Feed it records with Observe (they may arrive slightly out of order
// within a clock-skew bound) and drive its clock with Advance; emitted
// events arrive on the callback in detection-time order. The zero value is
// not usable; construct with NewStreamDetector.
type StreamDetector struct {
	det      Detector // threshold and tolerance of the shared peerDecision
	onZombie func(ZombieEvent)

	track   *trackIndex
	scratch bgp.Scratch
	// peers numbers, densely, every peer that has announced a tracked
	// prefix; peerIdx inverts it. A peer seen only through withdrawals or
	// session events gets no id: it has no state to touch.
	peers   []PeerID
	peerIdx map[PeerID]uint32
	// state is the current fold of every (peer, prefix) seen. Each state
	// is also threaded onto two chains, so neither fire nor foldSession
	// walks the whole map: byPrefix heads the chain of a prefix's pairs,
	// byPeer (indexed by peer id) the chain of a peer's.
	state    map[streamKey]*streamState
	byPrefix map[netip.Prefix]*streamState
	byPeer   []*streamState
	// pending detection checks, time-ordered (ties in interval order).
	checks []pendingCheck

	// ingestNanos is the stamp of the record currently being processed,
	// set by SetIngestStamp before Advance/Observe and copied onto every
	// ZombieEvent fired while it is current.
	ingestNanos int64
}

// ZombieEvent is an emitted real-time detection.
type ZombieEvent struct {
	Peer        PeerID
	Prefix      netip.Prefix
	Interval    beacon.Interval
	Path        bgp.ASPath
	AnnouncedAt time.Time
	DetectedAt  time.Time
	// Duplicate marks a stuck route from an earlier interval (Aggregator
	// clock), already reported then.
	Duplicate bool
	// Resurrected marks a route that was withdrawn and came back without
	// a new beacon announcement before the check fired.
	Resurrected bool
	// IngestNanos is the monotonic process-clock stamp (obs.Nanos) of the
	// record whose Advance fired this detection — the latency-provenance
	// anchor carried through to the published alert. Zero when the driver
	// did not stamp (batch replays).
	IngestNanos int64
}

type streamKey struct {
	peer   uint32 // dense peer id
	prefix netip.Prefix
}

// streamState is a pair's State folded over the records observed so far —
// the batch State as of "now" — plus the one thing resurrection marking
// needs that the fold does not keep, and its links on the two chains.
type streamState struct {
	State
	withdrawnAt time.Time // when the route last went from present to absent
	peer        uint32
	// nextOfPrefix and nextOfPeer link the pair's prefix and peer chains.
	nextOfPrefix, nextOfPeer *streamState
}

type pendingCheck struct {
	at       time.Time
	interval beacon.Interval
}

// NewStreamDetector builds a streaming detector for the given beacon
// intervals. onZombie is called synchronously from Advance.
func NewStreamDetector(intervals []beacon.Interval, threshold time.Duration, onZombie func(ZombieEvent)) *StreamDetector {
	sd := &StreamDetector{
		det:      Detector{Threshold: threshold},
		onZombie: onZombie,
		peerIdx:  make(map[PeerID]uint32),
		state:    make(map[streamKey]*streamState),
		byPrefix: make(map[netip.Prefix]*streamState),
	}
	track := make(TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
		sd.checks = append(sd.checks, pendingCheck{at: iv.WithdrawAt.Add(sd.det.threshold()), interval: iv})
	}
	sd.track = track.prepare()
	sort.SliceStable(sd.checks, func(i, j int) bool { return sd.checks[i].at.Before(sd.checks[j].at) })
	return sd
}

// Observe ingests one collector record: the events recordEvents derives
// from it — the same events a HistoryBuilder would store — are folded
// straight into the per-pair states. Records timestamped after the current
// Advance watermark are fine (they usually are); records that fail to
// decode are ignored, and so are records for untracked prefixes: those
// are validated but not materialized — their AS paths, aggregators and
// communities are never interned, hashed or copied.
func (sd *StreamDetector) Observe(collectorName string, rec mrt.Record) {
	_ = recordEvents(collectorName, 0, rec, sd.track, &sd.scratch, sd.foldPair, sd.foldSession)
}

func (sd *StreamDetector) foldPair(peer PeerID, p netip.Prefix, ev histEvent) {
	id, known := sd.peerIdx[peer]
	var st *streamState
	if known {
		st = sd.state[streamKey{peer: id, prefix: p}]
	}
	if st == nil {
		if ev.kind != evAnnounce {
			return // a withdrawal of a route never seen: still the zero State
		}
		if !known {
			id = uint32(len(sd.peers))
			sd.peers = append(sd.peers, peer)
			sd.peerIdx[peer] = id
			sd.byPeer = append(sd.byPeer, nil)
		}
		st = &streamState{peer: id, nextOfPrefix: sd.byPrefix[p], nextOfPeer: sd.byPeer[id]}
		sd.state[streamKey{peer: id, prefix: p}] = st
		sd.byPrefix[p], sd.byPeer[id] = st, st
	}
	st.fold(&ev)
}

// foldSession applies a session event to every route of the peer.
func (sd *StreamDetector) foldSession(peer PeerID, ev histEvent) {
	if id, ok := sd.peerIdx[peer]; ok {
		for st := sd.byPeer[id]; st != nil; st = st.nextOfPeer {
			st.fold(&ev)
		}
	}
}

func (st *streamState) fold(ev *histEvent) {
	was := st.Present
	st.State.fold(ev)
	if was && !st.Present {
		st.withdrawnAt = ev.at
	}
}

// Advance moves the detection clock to `now`, firing every check whose
// instant has passed, in order. Call it with the record timestamps as the
// stream progresses (and once with a late timestamp to flush).
func (sd *StreamDetector) Advance(now time.Time) {
	for len(sd.checks) > 0 && !sd.checks[0].at.After(now) {
		check := sd.checks[0]
		sd.checks = sd.checks[1:]
		sd.fire(check)
	}
}

// fire emits the check's stuck routes in comparePeers order — the order
// batch Outbreak.Routes has — so the alert sequence (and every wire and
// journal sequence number downstream) is the same on every run; ranging
// over the state map alone would shuffle it. Each alert is the Route the
// shared peerDecision makes of the pair's state.
func (sd *StreamDetector) fire(check pendingCheck) {
	iv := check.interval
	var stuck []*streamState
	for st := sd.byPrefix[iv.Prefix]; st != nil; st = st.nextOfPrefix {
		if st.Present {
			stuck = append(stuck, st)
		}
	}
	slices.SortFunc(stuck, func(a, b *streamState) int { return comparePeers(sd.peers[a.peer], sd.peers[b.peer]) })
	var routes []Route
	for _, st := range stuck {
		routes = routes[:0]
		sd.det.peerDecision(sd.peers[st.peer], iv, st.State, State{}, &routes, nil)
		r := routes[0] // a present state always yields its route
		ev := ZombieEvent{
			IngestNanos: sd.ingestNanos,
			Peer:        r.Peer,
			Prefix:      r.Prefix,
			Interval:    r.Interval,
			Path:        r.Path,
			AnnouncedAt: r.AnnouncedAt,
			DetectedAt:  check.at,
			Duplicate:   r.Duplicate,
			// The route had been withdrawn at this peer and came back
			// after the interval's withdrawal without a new beacon
			// announcement: a live resurrection.
			Resurrected: !st.withdrawnAt.IsZero() &&
				st.At.After(iv.WithdrawAt) &&
				r.AnnouncedAt.Before(st.At.Add(-clockTolerance)),
		}
		if sd.onZombie != nil {
			sd.onZombie(ev)
		}
	}
}

// PendingChecks reports how many interval checks have not fired yet.
func (sd *StreamDetector) PendingChecks() int { return len(sd.checks) }

// SetIngestStamp records the monotonic ingest stamp (obs.Nanos) of the
// record about to be fed through Advance/Observe. Detections fired while
// the stamp is current carry it as ZombieEvent.IngestNanos, so alert
// latency can be measured end to end from the moment the triggering
// record entered the process.
func (sd *StreamDetector) SetIngestStamp(nanos int64) { sd.ingestNanos = nanos }
