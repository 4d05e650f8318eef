package zombie

import (
	"net/netip"
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
	threshold time.Duration
	tolerance time.Duration
	onZombie  func(ZombieEvent)

	intervals map[netip.Prefix][]beacon.Interval
	track     TrackSet

	// state per (peer, prefix).
	state map[streamKey]*streamState
	// pending detection checks, time-ordered.
	checks checkQueue
	now    time.Time

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
	peer   PeerID
	prefix netip.Prefix
}

type streamState struct {
	present     bool
	path        bgp.ASPath
	agg         *bgp.Aggregator
	announcedAt time.Time
	withdrawnAt time.Time // collector-observed withdrawal, for resurrection marking
}

type pendingCheck struct {
	at       time.Time
	interval beacon.Interval
	seq      int
}

type checkQueue []pendingCheck

// NewStreamDetector builds a streaming detector for the given beacon
// intervals. onZombie is called synchronously from Advance.
func NewStreamDetector(intervals []beacon.Interval, threshold time.Duration, onZombie func(ZombieEvent)) *StreamDetector {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	sd := &StreamDetector{
		threshold: threshold,
		tolerance: time.Minute,
		onZombie:  onZombie,
		intervals: make(map[netip.Prefix][]beacon.Interval),
		track:     make(TrackSet),
		state:     make(map[streamKey]*streamState),
	}
	seq := 0
	for _, iv := range intervals {
		sd.intervals[iv.Prefix] = append(sd.intervals[iv.Prefix], iv)
		sd.track[iv.Prefix] = true
		sd.checks = append(sd.checks, pendingCheck{
			at:       iv.WithdrawAt.Add(threshold),
			interval: iv,
			seq:      seq,
		})
		seq++
	}
	sort.Slice(sd.checks, func(i, j int) bool {
		if !sd.checks[i].at.Equal(sd.checks[j].at) {
			return sd.checks[i].at.Before(sd.checks[j].at)
		}
		return sd.checks[i].seq < sd.checks[j].seq
	})
	return sd
}

// Observe ingests one collector record. Records timestamped after the
// current Advance watermark are fine (they usually are); records for
// untracked prefixes are ignored.
func (sd *StreamDetector) Observe(collectorName string, rec mrt.Record) {
	switch r := rec.(type) {
	case *mrt.BGP4MPMessage:
		u, err := r.Update()
		if err != nil {
			return // corrupted records are skipped, as in the batch path
		}
		peer := PeerID{Collector: collectorName, AS: r.PeerAS, Addr: r.PeerIP}
		for _, p := range u.WithdrawnAll() {
			if sd.track[p] {
				sd.withdraw(peer, p, r.Timestamp)
			}
		}
		for _, p := range u.Announced() {
			if sd.track[p] {
				sd.announce(peer, p, r.Timestamp, u.Attrs.ASPath, u.Attrs.Aggregator)
			}
		}
	case *mrt.BGP4MPStateChange:
		if !r.Down() {
			return
		}
		peer := PeerID{Collector: collectorName, AS: r.PeerAS, Addr: r.PeerIP}
		// Session down clears every route of the peer.
		for k, st := range sd.state {
			if k.peer == peer && st.present {
				st.present = false
				st.withdrawnAt = r.Timestamp
			}
		}
	}
}

func (sd *StreamDetector) announce(peer PeerID, p netip.Prefix, at time.Time, path bgp.ASPath, agg *bgp.Aggregator) {
	k := streamKey{peer: peer, prefix: p}
	st := sd.state[k]
	if st == nil {
		st = &streamState{}
		sd.state[k] = st
	}
	st.present = true
	st.path = path
	st.agg = agg
	st.announcedAt = at
}

func (sd *StreamDetector) withdraw(peer PeerID, p netip.Prefix, at time.Time) {
	k := streamKey{peer: peer, prefix: p}
	if st := sd.state[k]; st != nil && st.present {
		st.present = false
		st.withdrawnAt = at
	}
}

// Advance moves the detection clock to `now`, firing every check whose
// instant has passed, in order. Call it with the record timestamps as the
// stream progresses (and once with a late timestamp to flush).
func (sd *StreamDetector) Advance(now time.Time) {
	sd.now = now
	for len(sd.checks) > 0 && !sd.checks[0].at.After(now) {
		check := sd.checks[0]
		sd.checks = sd.checks[1:]
		sd.fire(check)
	}
}

// fire emits the check's stuck routes in comparePeers order — the order
// batch Outbreak.Routes has — so the alert sequence (and every wire and
// journal sequence number downstream) is the same on every run; ranging
// over the state map alone would shuffle it.
func (sd *StreamDetector) fire(check pendingCheck) {
	iv := check.interval
	var stuck []streamKey
	for k, st := range sd.state {
		if k.prefix == iv.Prefix && st.present {
			stuck = append(stuck, k)
		}
	}
	sort.Slice(stuck, func(i, j int) bool { return comparePeers(stuck[i].peer, stuck[j].peer) < 0 })
	for _, k := range stuck {
		st := sd.state[k]
		announcedAt := st.announcedAt
		if st.agg != nil {
			if t, ok := beacon.DecodeAggregatorClock(st.agg.Addr, st.announcedAt); ok {
				announcedAt = t
			}
		}
		ev := ZombieEvent{
			IngestNanos: sd.ingestNanos,
			Peer:        k.peer,
			Prefix:      iv.Prefix,
			Interval:    iv,
			Path:        st.path,
			AnnouncedAt: announcedAt,
			DetectedAt:  check.at,
			Duplicate:   announcedAt.Before(iv.AnnounceAt.Add(-sd.tolerance)),
			// The route had been withdrawn at this peer and came back
			// after the interval's withdrawal without a new beacon
			// announcement: a live resurrection.
			Resurrected: !st.withdrawnAt.IsZero() &&
				st.announcedAt.After(iv.WithdrawAt) &&
				announcedAt.Before(st.announcedAt.Add(-sd.tolerance)),
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
