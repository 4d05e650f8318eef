// Command zombiehunt runs the revised zombie detection methodology over an
// MRT archive directory (as produced by beaconsim, or any collector export
// using the same layout: <dir>/<collector>/updates.mrt and optional
// <dir>/<collector>/bview.mrt).
//
// Usage:
//
//	zombiehunt -archive ./archive -base 2a0d:3dc1::/32 -approach 15d \
//	           -from 2024-06-10T11:30:00Z -to 2024-06-22T17:30:00Z \
//	           [-threshold 90m] [-lifespans] [-dot palm.dot] [-schedule ris] [-json] \
//	           [-detect all] \
//	           [-trace trace.json] [-progress 5s] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -detect runs the pluggable anomaly framework alongside the beacon
// methodology: "all" or a comma-separated subset of zombie, moas,
// hyperspecific, community. Findings are reported per detector (and
// under "anomalies" with -json). The anomaly detectors reconstruct a
// track-all history — every prefix in the archive, not just beacon
// prefixes — so expect more memory than the beacon-only run.
//
// -trace writes the run's span tree as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto) — decode, merge (the history seal) and
// interval evaluation show up as nested slices. -progress logs a structured
// pipeline heartbeat to stderr at the given interval, for watching a
// long archive run without polluting the report on stdout. -cpuprofile
// and -memprofile write pprof profiles covering the whole run (the heap
// profile is taken after a final GC, so it shows retained memory, not
// transient decode garbage); inspect with `go tool pprof`.
//
// The beacon schedule (base prefix, approach, window) tells the detector
// which prefixes to track and where the beacon intervals fall. Detection
// follows the paper: state reconstruction from raw updates at message
// granularity, per-interval evaluation, Aggregator-clock dedup, and
// noisy-peer flagging.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"zombiescope/internal/archive"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
	"zombiescope/internal/zombie"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags in, report on w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("zombiehunt", flag.ContinueOnError)
	var (
		archiveDir = fs.String("archive", "archive", "MRT archive directory")
		schedKind  = fs.String("schedule", "author", "beacon schedule: author | ris")
		baseStr    = fs.String("base", "2a0d:3dc1::/32", "beacon base prefix (author schedule)")
		approach   = fs.String("approach", "15d", "beacon recycle approach: 24h | 15d (author schedule)")
		fromStr    = fs.String("from", "", "experiment start (RFC 3339)")
		toStr      = fs.String("to", "", "experiment end (RFC 3339)")
		origin     = fs.Uint64("origin", 210312, "beacon origin ASN")
		stride     = fs.Int("stride", 1, "beacon slot stride (announcements every stride*15min)")
		threshold  = fs.Duration("threshold", 90*time.Minute, "zombie detection threshold")
		lifespans  = fs.Bool("lifespans", false, "track lifespans from RIB dumps")
		dotOut     = fs.String("dot", "", "write the most impactful outbreak's palm-tree graph (Graphviz DOT) to this file")
		jsonOut    = fs.Bool("json", false, "emit the report as one JSON document on stdout instead of text")
		detect     = fs.String("detect", "", "run anomaly detectors over the archive: 'all' or a comma-separated subset of "+joinNames())
		moasMin    = fs.Duration("moas-min", zombie.DefaultMOASMinDuration, "minimum concurrent-origin overlap for a MOAS conflict finding")
		hyperMin   = fs.Duration("hyper-min", zombie.DefaultHyperMinDuration, "minimum visibility for a hyper-specific prefix finding")
		stormMin   = fs.Int("storm-events", zombie.DefaultStormMinEvents, "community changes within -storm-window that constitute a noise storm")
		stormWin   = fs.Duration("storm-window", zombie.DefaultStormWindow, "rate window for community-storm detection")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "pipeline workers for decode/detection (0 or 1: one inline worker; the report is identical for any value)")
		traceOut   = fs.String("trace", "", "write the run's spans as Chrome trace-event JSON to this file")
		progress   = fs.Duration("progress", 0, "log a pipeline progress heartbeat to stderr at this interval (0 disables)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		stop, perr := startCPUProfile(*cpuProfile)
		if perr != nil {
			return perr
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	if *traceOut != "" {
		tr := obs.NewTracer()
		obs.SetTracer(tr)
		defer func() {
			obs.SetTracer(nil)
			if werr := writeTrace(tr, *traceOut); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	if *progress > 0 {
		logger, lerr := obs.NewLogger(os.Stderr, "text", "info")
		if lerr != nil {
			return lerr
		}
		defer startProgress(obs.Component(logger, "zombiehunt"), *progress)()
	}

	intervals, from, to, err := beacon.ParseSchedule(*schedKind, *baseStr, *approach, bgp.ASN(*origin), *stride, *fromStr, *toStr)
	if err != nil {
		return err
	}

	det := &zombie.Detector{Threshold: *threshold, Parallelism: *parallel}
	// Each rotated file stays its own mapped segment (a heap read where
	// mmap is unavailable) and the pipeline decodes record-aligned chunks
	// straight out of the mappings — no concatenated in-memory copy of the
	// archive. The mappings stay pinned until the run is done: borrowed
	// decode scratch aliases them only during the fold, but the -detect
	// pass re-reads the updates and -lifespans reads the dump bytes.
	ms, err := archive.OpenMapped(*archiveDir)
	if err != nil {
		return err
	}
	defer ms.Close()
	collectors := len(ms.Updates)
	if !*jsonOut {
		fmt.Fprintf(w, "archive: %d collectors, %d beacon intervals\n", collectors, len(intervals))
	}
	rep, err := det.DetectStreams(ms.Updates, intervals)
	if err != nil {
		return err
	}

	summary := zombie.Summarize(rep, zombie.NoisyConfig{}, 5)
	var lr *zombie.LifespanReport
	if *lifespans {
		if lr, err = zombie.TrackLifespans(ms.Dumps, intervals, zombie.LifespanConfig{Parallelism: *parallel}); err != nil {
			return err
		}
	}

	var anomalies *zombie.AnomalyReport
	if *detect != "" {
		var names []string
		if *detect != "all" {
			names = splitDetect(*detect)
		}
		dets, derr := zombie.BuildAnomalyDetectors(names, zombie.AnomalyConfig{
			Intervals:        intervals,
			Threshold:        *threshold,
			MOASMinDuration:  *moasMin,
			HyperMinDuration: *hyperMin,
			StormMinEvents:   *stormMin,
			StormWindow:      *stormWin,
			Parallelism:      *parallel,
		})
		if derr != nil {
			return derr
		}
		// Track-all history: the anomaly detectors see every prefix in the
		// archive, not just beacon prefixes.
		h, herr := zombie.BuildHistoryStreams(ms.Updates, nil, *parallel)
		if herr != nil {
			return herr
		}
		anomalies = zombie.RunAnomalyDetectors(h, zombie.Window{From: from, To: to}, dets, *parallel)
	}

	if *jsonOut {
		if err := writeJSONReport(w, collectors, summary, lr, anomalies); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(w)
		summary.Render(w)
		if anomalies != nil {
			renderAnomalies(w, anomalies)
		}
	}

	if *dotOut != "" && len(summary.TopOutbreaks) > 0 {
		top := summary.TopOutbreaks[0].Outbreak
		if err := os.WriteFile(*dotOut, []byte(zombie.OutbreakGraphDOT(&top)), 0o644); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(w, "\npalm-tree graph of %s written to %s\n", top.Prefix, *dotOut)
		}
	}

	if *lifespans && !*jsonOut {
		durs := lr.Durations(24*time.Hour, summary.NoisyASSet(), summary.NoisyAddrSet())
		fmt.Fprintf(w, "\nlifespans (>= 1 day, noisy excluded): %d outbreaks\n", len(durs))
		for _, d := range durs {
			fmt.Fprintf(w, "  %.1f days\n", d.Hours()/24)
		}
		if res := lr.Resurrections(); len(res) > 0 {
			fmt.Fprintln(w, "\nresurrections:")
			for _, r := range res {
				fmt.Fprintf(w, "  %s at %s %s: vanished %s, reappeared %s (path %s)\n",
					r.Prefix, r.Peer.AS, r.Peer.Collector,
					r.LastSeen.Format(time.DateOnly), r.ReappearedAt.Format(time.DateOnly), r.Path)
			}
		}
	}
	return nil
}

// joinNames renders the anomaly detector names for the -detect usage
// string.
func joinNames() string {
	return strings.Join(zombie.AnomalyDetectorNames(), ",")
}

// splitDetect parses the -detect list.
func splitDetect(s string) []string {
	var names []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// renderAnomalies prints the per-detector report sections.
func renderAnomalies(w io.Writer, rep *zombie.AnomalyReport) {
	fmt.Fprintf(w, "\nanomaly detectors (%d findings):\n", len(rep.Findings))
	names := make([]string, 0, len(rep.ByDetector))
	for name := range rep.ByDetector {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "\n[%s] %d findings\n", name, rep.ByDetector[name])
		for _, a := range rep.Filter(name) {
			fmt.Fprintf(w, "  %s %s", a.Kind, a.Prefix)
			if a.Peer != (zombie.PeerID{}) {
				fmt.Fprintf(w, " peer AS%d %s@%s", a.Peer.AS, a.Peer.Addr, a.Peer.Collector)
			}
			if len(a.Origins) > 0 {
				fmt.Fprintf(w, " origins %v", a.Origins)
			}
			fmt.Fprintf(w, " [%s .. %s] %s\n",
				a.Start.Format(time.RFC3339), a.End.Format(time.RFC3339), a.Detail)
		}
	}
}

// startCPUProfile begins CPU profiling into path and returns the stop
// function to defer.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile forces a GC and snapshots retained heap to path — the
// number that matters for the pooled/interned hot path is what survives
// collection, not transient decode garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace flushes the collected spans as Chrome trace-event JSON.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProgress launches the heartbeat goroutine and returns its stop
// function. Each tick logs the shared pipeline registry's series under
// their /metrics names, so a long run shows decode/detection advancing
// even before any report is printed. pipeline_events_sharded_total moves
// only under -lifespans: RIB-dump tracking is the counter's one feeder.
func startProgress(l *slog.Logger, every time.Duration) func() {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c, h := pipeline.Default.Registry().Values()
				l.Info("pipeline progress",
					"pipeline_records_decoded_total", c["pipeline_records_decoded_total"],
					"pipeline_bytes_decoded_total", c["pipeline_bytes_decoded_total"],
					"pipeline_events_sharded_total", c["pipeline_events_sharded_total"],
					"pipeline_intervals_evaluated_total", c["pipeline_intervals_evaluated_total"],
					`pipeline_stage_seconds_sum{stage="decode"}`, h[`pipeline_stage_seconds{stage="decode"}`].Sum,
					`pipeline_stage_seconds_sum{stage="detect"}`, h[`pipeline_stage_seconds{stage="detect"}`].Sum)
			}
		}
	}()
	return func() { close(done) }
}

// JSON report shapes (-json). Field names are stable: scripts depend on
// them.
type jsonReport struct {
	ThresholdMinutes float64        `json:"threshold_minutes"`
	Collectors       int            `json:"collectors"`
	Announcements    int            `json:"announcements"`
	Counts           jsonCounts     `json:"counts"`
	AffectedPercent  float64        `json:"announcements_affected_percent"`
	NoisyPeers       []jsonPeer     `json:"noisy_peers"`
	TopOutbreaks     []jsonOutbreak `json:"top_outbreaks"`
	// Lifespans is present only with -lifespans.
	Lifespans *jsonLifespans `json:"lifespans,omitempty"`
	// Anomalies is present only with -detect.
	Anomalies *jsonAnomalies `json:"anomalies,omitempty"`
}

type jsonAnomalies struct {
	ByDetector map[string]int `json:"by_detector"`
	Findings   []jsonAnomaly  `json:"findings"`
}

type jsonAnomaly struct {
	Detector        string    `json:"detector"`
	Kind            string    `json:"kind"`
	Prefix          string    `json:"prefix"`
	Peer            *jsonPeer `json:"peer,omitempty"`
	Origins         []uint32  `json:"origins,omitempty"`
	Start           time.Time `json:"start"`
	End             time.Time `json:"end"`
	LifespanMinutes float64   `json:"lifespan_minutes"`
	Count           int       `json:"count"`
	Detail          string    `json:"detail,omitempty"`
}

type jsonCounts struct {
	WithDoubleCounting jsonCount `json:"with_double_counting"`
	Deduped            jsonCount `json:"deduped"`
	Clean              jsonCount `json:"clean"`
}

type jsonCount struct {
	Outbreaks int `json:"outbreaks"`
	Routes    int `json:"routes"`
}

type jsonPeer struct {
	Collector string `json:"collector"`
	AS        uint32 `json:"as"`
	Addr      string `json:"addr"`
}

type jsonOutbreak struct {
	Prefix           string         `json:"prefix"`
	IntervalStart    time.Time      `json:"interval_start"`
	IntervalWithdraw time.Time      `json:"interval_withdraw"`
	Routes           int            `json:"routes"`
	PeerASes         int            `json:"peer_ases"`
	RootCause        *jsonRootCause `json:"root_cause,omitempty"`
}

type jsonRootCause struct {
	Candidate     uint32   `json:"candidate_as"`
	CommonSubpath []uint32 `json:"common_subpath"`
	Routes        int      `json:"routes"`
	PeerASes      int      `json:"peer_ases"`
	Confidence    float64  `json:"confidence"`
}

type jsonLifespans struct {
	// DurationDays lists outbreak lifespans >= 1 day, noisy peers
	// excluded, in days.
	DurationDays  []float64          `json:"duration_days"`
	Resurrections []jsonResurrection `json:"resurrections"`
}

type jsonResurrection struct {
	Peer         jsonPeer  `json:"peer"`
	Prefix       string    `json:"prefix"`
	LastSeen     time.Time `json:"last_seen"`
	ReappearedAt time.Time `json:"reappeared_at"`
	Path         []uint32  `json:"path"`
}

func toJSONPeer(p zombie.PeerID) jsonPeer {
	return jsonPeer{Collector: p.Collector, AS: uint32(p.AS), Addr: p.Addr.String()}
}

func toUint32s(asns []bgp.ASN) []uint32 {
	out := make([]uint32, len(asns))
	for i, as := range asns {
		out[i] = uint32(as)
	}
	return out
}

// writeJSONReport renders the machine-readable counterpart of
// Summary.Render plus the lifespan and anomaly sections.
func writeJSONReport(w io.Writer, collectors int, s *zombie.Summary, lr *zombie.LifespanReport, anomalies *zombie.AnomalyReport) error {
	r := jsonReport{
		ThresholdMinutes: s.Threshold.Minutes(),
		Collectors:       collectors,
		Announcements:    s.Announcements,
		Counts: jsonCounts{
			WithDoubleCounting: jsonCount(s.WithDoubleCounting),
			Deduped:            jsonCount(s.Deduped),
			Clean:              jsonCount(s.Clean),
		},
		AffectedPercent: s.AffectedFraction() * 100,
		NoisyPeers:      []jsonPeer{},
		TopOutbreaks:    []jsonOutbreak{},
	}
	for _, p := range s.NoisyPeers {
		r.NoisyPeers = append(r.NoisyPeers, toJSONPeer(p))
	}
	for _, os := range s.TopOutbreaks {
		ob := os.Outbreak
		jo := jsonOutbreak{
			Prefix:           ob.Prefix.String(),
			IntervalStart:    ob.Interval.AnnounceAt,
			IntervalWithdraw: ob.Interval.WithdrawAt,
			Routes:           len(ob.Routes),
			PeerASes:         len(ob.PeerASes()),
		}
		if os.Inferred {
			jo.RootCause = &jsonRootCause{
				Candidate:     uint32(os.RootCause.Candidate),
				CommonSubpath: toUint32s(os.RootCause.CommonSubpath),
				Routes:        os.RootCause.Routes,
				PeerASes:      os.RootCause.PeerASes,
				Confidence:    os.RootCause.Confidence,
			}
		}
		r.TopOutbreaks = append(r.TopOutbreaks, jo)
	}
	if lr != nil {
		ls := &jsonLifespans{DurationDays: []float64{}, Resurrections: []jsonResurrection{}}
		for _, d := range lr.Durations(24*time.Hour, s.NoisyASSet(), s.NoisyAddrSet()) {
			ls.DurationDays = append(ls.DurationDays, d.Hours()/24)
		}
		for _, res := range lr.Resurrections() {
			ls.Resurrections = append(ls.Resurrections, jsonResurrection{
				Peer:         toJSONPeer(res.Peer),
				Prefix:       res.Prefix.String(),
				LastSeen:     res.LastSeen,
				ReappearedAt: res.ReappearedAt,
				Path:         toUint32s(res.Path.ASNs()),
			})
		}
		r.Lifespans = ls
	}
	if anomalies != nil {
		ja := &jsonAnomalies{ByDetector: anomalies.ByDetector, Findings: []jsonAnomaly{}}
		for _, a := range anomalies.Findings {
			f := jsonAnomaly{
				Detector:        a.Detector,
				Kind:            a.Kind,
				Prefix:          a.Prefix.String(),
				Start:           a.Start,
				End:             a.End,
				LifespanMinutes: a.Lifespan().Minutes(),
				Count:           a.Count,
				Detail:          a.Detail,
			}
			if a.Peer != (zombie.PeerID{}) {
				p := toJSONPeer(a.Peer)
				f.Peer = &p
			}
			if len(a.Origins) > 0 {
				f.Origins = toUint32s(a.Origins)
			}
			ja.Findings = append(ja.Findings, f)
		}
		r.Anomalies = ja
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
