package zombie

import (
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// Detector runs the paper's revised zombie detection over reconstructed
// histories.
type Detector struct {
	// Threshold after the withdrawal at which a still-present route is a
	// zombie. Default 90 minutes.
	Threshold time.Duration
	// RecordPaths collects per-peer path-length observations (the
	// material for the paper's AS-path-length and emergence-rate
	// figures). Costs memory on large runs.
	RecordPaths bool
	// IgnoreSessionState is an ablation switch: skip session STATE
	// records during state reconstruction, so a peer whose session
	// dropped still "has" its last-announced routes. It quantifies the
	// value of one of the revised methodology's ingredients (the legacy
	// looking-glass pipeline behaved this way).
	IgnoreSessionState bool
	// Parallelism is the pipeline worker count for archive decoding,
	// history building and interval evaluation. 0 or 1: one inline
	// worker — the same code path, so the report is identical for any
	// value; the differential harness (diff_test.go) proves it.
	Parallelism int
}

func (d *Detector) threshold() time.Duration {
	if d.Threshold <= 0 {
		return DefaultThreshold
	}
	return d.Threshold
}

// clockTolerance is how far the Aggregator clock may lag the interval
// start before a route counts as a duplicate: clock resolution and
// propagation slack.
const clockTolerance = time.Minute

// Detect parses the update archives and evaluates every interval,
// returning all zombie routes with duplicates flagged (not removed).
func (d *Detector) Detect(updates map[string][]byte, intervals []beacon.Interval) (*Report, error) {
	return d.DetectStreams(oneSegmentStreams(updates), intervals)
}

// DetectStreams is Detect over segmented update streams (each collector's
// rotated files as separate byte slices, e.g. archive.OpenMapped). The
// report is identical to Detect over the concatenated streams; the
// segments are consumed zero-copy.
func (d *Detector) DetectStreams(streams map[string][][]byte, intervals []beacon.Interval) (*Report, error) {
	track := make(TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
	}
	h, err := BuildHistoryStreams(streams, track, d.Parallelism)
	if err != nil {
		return nil, err
	}
	return d.DetectFromHistory(h, intervals), nil
}

// intervalResult is the outcome of evaluating one beacon interval.
type intervalResult struct {
	visible bool
	routes  []Route
	pathObs []PathObservation
}

// peerDecision applies the per-(interval, peer) detection decision given
// the state at the check instant (st) and — read only when RecordPaths —
// the state at the withdrawal instant (pre). It is THE decision: the
// columnar kernel, the StreamDetector and the oracle's row sweep all call
// it, so the semantics cannot drift between them.
func (d *Detector) peerDecision(peer PeerID, iv beacon.Interval, st, pre State,
	routes *[]Route, pathObs *[]PathObservation) {
	var normalLen int
	var normalPath bgp.ASPath
	if d.RecordPaths && pre.Present {
		normalLen = pre.Path.Length()
		normalPath = pre.Path
	}
	if !st.Present {
		if d.RecordPaths && normalLen > 0 {
			*pathObs = append(*pathObs, PathObservation{
				Peer: peer, Prefix: iv.Prefix,
				NormalLen: normalLen,
			})
		}
		return
	}
	announcedAt := st.At
	if st.Agg != nil {
		if t, ok := beacon.DecodeAggregatorClock(st.Agg.Addr, st.At); ok {
			announcedAt = t
		}
	}
	dup := announcedAt.Before(iv.AnnounceAt.Add(-clockTolerance))
	*routes = append(*routes, Route{
		Peer:        peer,
		Prefix:      iv.Prefix,
		Interval:    iv,
		Path:        st.Path,
		AnnouncedAt: announcedAt,
		LastUpdate:  st.LastEvent,
		Duplicate:   dup,
	})
	if d.RecordPaths {
		*pathObs = append(*pathObs, PathObservation{
			Peer: peer, Prefix: iv.Prefix,
			NormalLen:   normalLen,
			ZombieLen:   st.Path.Length(),
			Zombie:      true,
			PathChanged: !st.Path.Equal(normalPath),
			Duplicate:   dup,
		})
	}
}

// DetectFromHistory runs detection over an already-built history with the
// batched kernel (detectColumnar), which sweeps the event arena once in
// span order. The work is spread over Parallelism pipeline workers and
// merged deterministically, so the report is identical for any worker
// count — the differential harness (diff_test.go) proves it.
func (d *Detector) DetectFromHistory(h *History, intervals []beacon.Interval) *Report {
	sp := obs.StartSpan("zombie.detect")
	sp.SetArg("intervals", len(intervals))
	sp.SetArg("threshold", d.threshold().String())
	sp.SetArg("kernel", "columnar")
	defer sp.End()
	start := time.Now()
	results := d.detectColumnar(h, intervals, d.threshold(), sp)
	pipeline.Default.AddIntervals(len(intervals))
	pipeline.Default.ObserveDetect(time.Since(start))
	return d.assemble(h.reportPeers(intervals), intervals, results)
}

// assemble folds per-interval results into the Report, in interval order.
// Shared by the kernel and the oracle's row sweep: the report shape depends
// only on the results.
func (d *Detector) assemble(peers []PeerID, intervals []beacon.Interval, results []intervalResult) *Report {
	rep := &Report{
		Threshold: d.threshold(),
		Intervals: intervals,
		Peers:     peers,
	}
	for i, res := range results {
		if res.visible {
			rep.VisiblePrefixes++
		}
		rep.PathObs = append(rep.PathObs, res.pathObs...)
		if len(res.routes) > 0 {
			rep.Outbreaks = append(rep.Outbreaks, Outbreak{
				Prefix:   intervals[i].Prefix,
				Interval: intervals[i],
				Routes:   res.routes,
			})
		}
	}
	return rep
}

// SweepPoint is one threshold of the paper's Fig. 2 sweep: the outbreak
// count and the fraction of announcements leading to outbreaks, after
// the filter options are applied.
type SweepPoint struct {
	Threshold time.Duration
	Outbreaks int
	// Fraction of beacon announcements (intervals) that led to at least
	// one zombie outbreak.
	Fraction float64
}

// Sweep runs the detection at each threshold over a shared history and
// returns one SweepPoint per threshold. The announcement denominator is
// the number of intervals.
func Sweep(h *History, intervals []beacon.Interval, thresholds []time.Duration, opts FilterOptions) []SweepPoint {
	sp := obs.StartSpan("zombie.sweep")
	sp.SetArg("thresholds", len(thresholds))
	defer sp.End()
	out := make([]SweepPoint, len(thresholds))
	for i, th := range thresholds {
		d := &Detector{Threshold: th}
		out[i] = sweepPoint(th, d.DetectFromHistory(h, intervals), opts)
	}
	return out
}

// sweepPoint condenses the report of one threshold into its sweep point.
func sweepPoint(th time.Duration, rep *Report, opts FilterOptions) SweepPoint {
	obs := rep.Filter(opts)
	frac := 0.0
	if len(rep.Intervals) > 0 {
		frac = float64(len(obs)) / float64(len(rep.Intervals))
	}
	return SweepPoint{Threshold: th, Outbreaks: len(obs), Fraction: frac}
}

// ConcurrentCounts returns, for each interval start time with at least one
// outbreak, how many outbreaks were concurrent — the paper's Fig. 7.
func ConcurrentCounts(obs []Outbreak) []int {
	byStart := make(map[time.Time]int)
	for _, ob := range obs {
		byStart[ob.Interval.AnnounceAt]++
	}
	keys := make([]time.Time, 0, len(byStart))
	for t := range byStart {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	out := make([]int, 0, len(keys))
	for _, t := range keys {
		out = append(out, byStart[t])
	}
	return out
}

// EmergenceRate is the likelihood of a <beacon prefix, peer AS> pair to
// have a zombie route — the paper's Fig. 5 metric.
type EmergenceRate struct {
	Prefix netip.Prefix
	PeerAS bgp.ASN
	// Rate = zombie routes / intervals of the prefix.
	Rate float64
}

// EmergenceRates computes the per-pair rates. Pairs that never produced a
// zombie are included with rate 0 when their peer appeared in the
// archives, matching the paper's observation that a large share of pairs
// shows no zombies at all.
func EmergenceRates(rep *Report, opts FilterOptions) []EmergenceRate {
	perPrefix := make(map[netip.Prefix]int)
	for _, iv := range rep.Intervals {
		perPrefix[iv.Prefix]++
	}
	type key struct {
		p  netip.Prefix
		as bgp.ASN
	}
	counts := make(map[key]int)
	for _, ob := range rep.Outbreaks {
		for _, r := range ob.Routes {
			if !opts.keeps(r) {
				continue
			}
			counts[key{r.Prefix, r.Peer.AS}]++
		}
	}
	peerASes := make(map[bgp.ASN]bool)
	for _, p := range rep.Peers {
		if opts.ExcludePeerAS != nil && opts.ExcludePeerAS[p.AS] {
			continue
		}
		peerASes[p.AS] = true
	}
	var out []EmergenceRate
	for p, n := range perPrefix {
		for as := range peerASes {
			out = append(out, EmergenceRate{Prefix: p, PeerAS: as, Rate: float64(counts[key{p, as}]) / float64(n)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PeerAS != out[j].PeerAS {
			return out[i].PeerAS < out[j].PeerAS
		}
		return comparePrefixes(out[i].Prefix, out[j].Prefix) < 0
	})
	return out
}
