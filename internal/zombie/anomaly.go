package zombie

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
)

// The anomaly framework generalizes the zombie detector: long-lived
// routing state that contradicts ground truth is one instance of a family
// of pathologies (MOAS conflicts, hyper-specific leaks, community noise
// storms) that all evaluate against the same columnar History arena. The
// detectors are one fixed table of detect functions; findings are typed
// Anomaly values with lifespans, sorted canonically so any build mode and
// worker count yields bit-identical reports.

// Window bounds an anomaly evaluation in record time. Findings are
// clipped to it; state carried in from before From still counts.
type Window struct {
	From time.Time
	To   time.Time
}

// Anomaly is one typed finding with a lifespan.
type Anomaly struct {
	// Detector is the table name of the detector that emitted it.
	Detector string
	// Kind classifies the finding within the detector (e.g.
	// "zombie-outbreak", "moas-conflict").
	Kind string
	// Prefix the finding concerns.
	Prefix netip.Prefix
	// Peer is set for per-session findings (community storms); zero for
	// prefix-level findings.
	Peer PeerID
	// Origins are the distinct origin ASes involved, sorted.
	Origins []bgp.ASN
	// Start/End bound the anomalous condition, clipped to the window.
	Start time.Time
	End   time.Time
	// Count is the detector-specific magnitude: stuck routes for zombies,
	// concurrent origins for MOAS, peak concurrent peers for
	// hyper-specifics, churn events for community storms.
	Count int
	// Detail is a one-line human-readable summary.
	Detail string
}

// Lifespan is the duration of the anomalous condition.
func (a *Anomaly) Lifespan() time.Duration { return a.End.Sub(a.Start) }

// AnomalyConfig carries what the detectors read from the run. The
// non-zombie detectors' thresholds are fixed (see anomaly_detectors.go).
type AnomalyConfig struct {
	// Intervals drive the zombie detector (it is interval-anchored; the
	// other detectors are interval-free).
	Intervals []beacon.Interval
	// Threshold is the zombie stuck-route threshold.
	Threshold time.Duration
	// Parallelism fans detector internals (and the zombie detector's
	// interval evaluation) over pipeline workers; results are identical
	// for any value.
	Parallelism int
}

// AnomalyDetector is one entry of the detector table bound to the config
// it runs with; BuildAnomalyDetectors makes them. Every detect function
// must be deterministic: the same history and window must produce the
// same findings regardless of internal parallelism or how the history
// was built (batch, parallel shards, or streamed).
type AnomalyDetector struct {
	name   string
	detect func(h *History, win Window, cfg *AnomalyConfig) []Anomaly
	cfg    *AnomalyConfig
}

// Name is the detector's table name.
func (d AnomalyDetector) Name() string { return d.name }

// anomalyDetectors is the fixed detector table, sorted by name.
var anomalyDetectors = []AnomalyDetector{
	{name: "community", detect: detectCommunityStorms},
	{name: "hyperspecific", detect: detectHyperSpecifics},
	{name: "moas", detect: detectMOAS},
	{name: "zombie", detect: detectZombies},
}

// AnomalyDetectorNames lists the detector names, sorted.
func AnomalyDetectorNames() []string {
	names := make([]string, len(anomalyDetectors))
	for i, d := range anomalyDetectors {
		names[i] = d.name
	}
	return names
}

// BuildAnomalyDetectors instantiates detectors by name. An empty list
// builds every detector, in sorted name order.
func BuildAnomalyDetectors(names []string, cfg AnomalyConfig) ([]AnomalyDetector, error) {
	if len(names) == 0 {
		names = AnomalyDetectorNames()
	}
	out := make([]AnomalyDetector, 0, len(names))
next:
	for _, name := range names {
		for _, d := range anomalyDetectors {
			if d.name == name {
				d.cfg = &cfg
				out = append(out, d)
				continue next
			}
		}
		return nil, fmt.Errorf("zombie: unknown anomaly detector %q (have %v)", name, AnomalyDetectorNames())
	}
	return out, nil
}

// AnomalyReport is the output of one framework run.
type AnomalyReport struct {
	// Findings across all detectors, in canonical order: detector name,
	// then (prefix, peer, start, end, kind).
	Findings []Anomaly
	// ByDetector counts findings per detector name, including zeros for
	// detectors that ran and found nothing.
	ByDetector map[string]int
}

// Filter returns the findings of one detector, in canonical order.
func (r *AnomalyReport) Filter(detector string) []Anomaly {
	var out []Anomaly
	for _, a := range r.Findings {
		if a.Detector == detector {
			out = append(out, a)
		}
	}
	return out
}

// RunAnomalyDetectors evaluates every detector against the shared
// history on that many pipeline workers (0 or 1: one inline worker);
// findings land in per-detector slots and are assembled in detector
// order, so the report is bit-identical for any worker count.
func RunAnomalyDetectors(h *History, win Window, dets []AnomalyDetector, parallelism int) *AnomalyReport {
	sp := obs.StartSpan("zombie.anomalies")
	sp.SetArg("detectors", len(dets))
	defer sp.End()
	slots := make([][]Anomaly, len(dets))
	engine(parallelism, sp).For(len(dets), func(i int) {
		d := &dets[i]
		findings := d.detect(h, win, d.cfg)
		for j := range findings {
			findings[j].Detector = d.Name()
		}
		sortAnomalies(findings)
		slots[i] = findings
	})
	rep := &AnomalyReport{ByDetector: make(map[string]int, len(dets))}
	for i, findings := range slots {
		rep.ByDetector[dets[i].Name()] = len(findings)
		rep.Findings = append(rep.Findings, findings...)
	}
	return rep
}

// sortAnomalies applies the canonical finding order within one detector:
// (prefix, peer, start, end, kind). Detectors already emit deterministic
// streams; the sort pins the cross-shard order so parallel evaluation
// cannot reorder equal work.
func sortAnomalies(as []Anomaly) {
	sort.SliceStable(as, func(i, j int) bool {
		a, b := &as[i], &as[j]
		if c := comparePrefixes(a.Prefix, b.Prefix); c != 0 {
			return c < 0
		}
		if c := comparePeers(a.Peer, b.Peer); c != 0 {
			return c < 0
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if !a.End.Equal(b.End) {
			return a.End.Before(b.End)
		}
		return a.Kind < b.Kind
	})
}
