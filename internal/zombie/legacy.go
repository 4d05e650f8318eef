package zombie

import (
	"hash/fnv"
	"time"

	"zombiescope/internal/beacon"
)

// LegacyDetector reproduces the prior study's looking-glass methodology as
// the replication baseline. It differs from the revised Detector in the
// ways §3.1 of the paper calls out:
//
//   - State comes from a "black box" looking-glass service that lags the
//     raw feed by lookingGlassDelay (3 minutes), so recent withdrawals
//     are invisible at check time (false positives) and recent
//     announcements are missed.
//   - The service is not always reachable: each (peer, prefix, interval)
//     check fails with probability 1-lookingGlassAvailability, losing
//     real zombies.
//   - Session STATE messages are ignored: a peer whose session dropped
//     still "has" its last-announced routes.
//   - No Aggregator-clock dedup: a route stuck across N intervals counts
//     N times.
//
// It checks at the revised detector's DefaultThreshold.
type LegacyDetector struct {
	Seed uint64
}

const (
	// lookingGlassDelay is the looking-glass service's update lag.
	lookingGlassDelay = 3 * time.Minute
	// lookingGlassAvailability is the probability a check reaches the
	// service. The legacy pipeline lost a substantial share of checks to
	// service lag, outages and updates (the paper's §3.1 lists the
	// RIPEstat changes); 0.89 reproduces the paper's finding that raw
	// data surfaces ~12.5% more outbreaks.
	lookingGlassAvailability = 0.89
)

// Detect runs the legacy methodology over a history on the detection
// kernel: with no session stream, checked at the looking glass's lagged
// instant WithdrawAt+DefaultThreshold-lookingGlassDelay, and keeping a route only if its
// check reached the service. Without a folded session event a present
// route's last event is its last announcement, so AnnouncedAt is
// LastUpdate; routes are never marked Duplicate (the legacy method cannot
// tell).
func (d *LegacyDetector) Detect(h *History, intervals []beacon.Interval) *Report {
	return d.detect(h, intervals, lookingGlassAvailability)
}

// detect is Detect with checks reaching the service with probability
// availability.
func (d *LegacyDetector) detect(h *History, intervals []beacon.Interval, availability float64) *Report {
	k := &Detector{IgnoreSessionState: true}
	results := k.detectColumnar(h, intervals, DefaultThreshold-lookingGlassDelay, nil)
	for i := range results {
		kept := results[i].routes[:0]
		for _, r := range results[i].routes {
			if d.checkSucceeds(r.Peer, intervals[i], availability) {
				r.AnnouncedAt, r.Duplicate = r.LastUpdate, false
				kept = append(kept, r)
			}
		}
		results[i].routes = kept
	}
	return k.assemble(h.reportPeers(intervals), intervals, results)
}

func (d *LegacyDetector) checkSucceeds(peer PeerID, iv beacon.Interval, availability float64) bool {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(d.Seed)
	put(uint64(peer.AS))
	a := peer.Addr.As16()
	h.Write(a[:])
	pa := iv.Prefix.Addr().As16()
	h.Write(pa[:])
	put(uint64(iv.AnnounceAt.Unix()))
	const span = 1 << 32
	return float64(h.Sum64()%span)/span < availability
}
