package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"net/netip"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"zombiescope/internal/archive"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
	"zombiescope/internal/mrt"
	"zombiescope/internal/pipeline"
	"zombiescope/internal/zombie"
)

// threshold is the paper's 90-minute zombie test, used by every workload.
const threshold = 90 * time.Minute

// huntInput is a generated archive plus what zombiehunt's flags would
// carry: the beacon intervals and the anomaly evaluation window.
type huntInput struct {
	updates   map[string][]byte
	dumps     map[string][]byte
	intervals []beacon.Interval
	window    zombie.Window
}

// The author scenario's size is not under the generator's control: with
// the seed, the link delays decide how much path exploration the 21
// Core-Backbone customers see, and the update archive comes out at one of
// five sizes between 14 and 26 MB (at stride 2). A workload needs a stated
// input size, so the benchmark states the most common one — authorBytes ÷
// stride, ± authorTolerance — and derives from --seed the first scenario
// seed that produces it.
const (
	authorBytes     = 40.3e6
	authorTolerance = 0.04
)

// resolveAuthorSeed finds the scenario seed for e.seed at the given slot
// stride. It runs once per process, before set-up is timed.
func (e *env) resolveAuthorSeed(scale int) error {
	want := authorBytes / float64(scale)
	for attempt := uint64(0); attempt < 64; attempt++ {
		seed := e.seed ^ attempt*0x9E3779B97F4A7C15
		d, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(seed, scale))
		if err != nil {
			return err
		}
		if math.Abs(float64(totalBytes(d.Updates))-want) <= authorTolerance*want {
			e.authorSeed = seed
			return nil
		}
	}
	return fmt.Errorf("no author scenario of %.0f bytes ± %.0f%% within 64 seeds of %d", want, 100*authorTolerance, e.seed)
}

// authorScenario generates the paper's beacon deployment at the given
// slot stride, timing the generator as its own layer.
func authorScenario(e *env, scale int) (*experiments.AuthorData, error) {
	start := time.Now()
	d, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(e.authorSeed, scale))
	if err != nil {
		return nil, err
	}
	e.layers.add("experiments.author_ms", millisSince(start))
	return d, nil
}

func millisSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// totalBytes sums the sizes of a set of per-collector streams.
func totalBytes(streams map[string][]byte) int {
	n := 0
	for _, data := range streams {
		n += len(data)
	}
	return n
}

func generateAuthor(e *env, stride int) (*huntInput, error) {
	d, err := authorScenario(e, stride)
	if err != nil {
		return nil, err
	}
	cfg := d.Config
	return &huntInput{
		updates:   d.Updates,
		dumps:     d.Dumps,
		intervals: d.Intervals,
		window:    zombie.Window{From: cfg.Approach1Start, To: cfg.Approach2End},
	}, nil
}

// hunt is the batch workload: zombiehunt -lifespans -detect all
// -parallel W -mmap over an on-disk archive. hunt-author and hunt-storm
// differ only in the generator, i.e. in the input.
type hunt struct {
	e        *env
	generate func(*env) (*huntInput, error)
	// Floors the reference must reach, so that two empty results cannot
	// agree their way to "correct".
	minOutbreaks, minCommunity int

	dir     string
	in      *huntInput
	records int
	want    string // reference digest
}

func (w *hunt) setUp() error {
	in, err := w.generate(w.e)
	if err != nil {
		return err
	}
	w.in = in
	w.dir = filepath.Join(w.e.dir, "archive")
	start := time.Now()
	if err := archive.Write(w.dir, &archive.Set{Updates: in.updates, Dumps: in.dumps}); err != nil {
		return err
	}
	w.e.layers.add("archive.write_ms", millisSince(start))
	w.e.layers.set("archive.bytes", float64(totalBytes(in.updates)+totalBytes(in.dumps)))
	return nil
}

// huntOutput is everything one zombiehunt run reports.
type huntOutput struct {
	rep       *zombie.Report
	lifespans *zombie.LifespanReport
	anomalies *zombie.AnomalyReport
}

func (w *hunt) anomalyDetectors(names []string, workers int) ([]zombie.AnomalyDetector, error) {
	return zombie.BuildAnomalyDetectors(names, zombie.AnomalyConfig{
		Intervals:   w.in.intervals,
		Threshold:   threshold,
		Parallelism: workers,
	})
}

func (w *hunt) reference() error {
	set, err := archive.Load(w.dir)
	if err != nil {
		return err
	}
	var out huntOutput
	if out.rep, err = (&zombie.Detector{Threshold: threshold}).Detect(set.Updates, w.in.intervals); err != nil {
		return err
	}
	if out.lifespans, err = zombie.TrackLifespans(set.Dumps, w.in.intervals, zombie.LifespanConfig{}); err != nil {
		return err
	}
	h, err := zombie.BuildHistory(set.Updates, nil)
	if err != nil {
		return err
	}
	dets, err := w.anomalyDetectors(nil, 0)
	if err != nil {
		return err
	}
	out.anomalies = zombie.RunAnomalyDetectors(h, w.in.window, dets, 0)
	if n := len(out.rep.Outbreaks); n < w.minOutbreaks {
		return fmt.Errorf("reference has %d outbreaks, want at least %d", n, w.minOutbreaks)
	}
	if n := out.anomalies.ByDetector["community"]; n < w.minCommunity {
		return fmt.Errorf("reference has %d community findings, want at least %d", n, w.minCommunity)
	}
	w.want = huntDigest(&out)

	w.records = 0
	for _, data := range set.Updates {
		rd := mrt.NewReader(bytes.NewReader(data))
		for {
			if _, err := rd.Next(); err != nil {
				if err != io.EOF {
					return err
				}
				break
			}
			w.records++
		}
	}
	return nil
}

// pass is zombiehunt's call sequence, in its order.
func (w *hunt) pass() (passResult, error) {
	start := time.Now()
	ms, err := archive.OpenMapped(w.dir)
	if err != nil {
		return passResult{}, err
	}
	defer ms.Close()
	W := w.e.workers
	var out huntOutput
	det := &zombie.Detector{Threshold: threshold, Parallelism: W}
	if out.rep, err = det.DetectStreams(ms.Updates, w.in.intervals); err != nil {
		return passResult{}, err
	}
	summary := zombie.Summarize(out.rep, zombie.NoisyConfig{}, 5)
	if out.lifespans, err = zombie.TrackLifespans(ms.Dumps, w.in.intervals, zombie.LifespanConfig{Parallelism: W}); err != nil {
		return passResult{}, err
	}
	dets, err := w.anomalyDetectors(nil, W)
	if err != nil {
		return passResult{}, err
	}
	h, err := zombie.BuildHistoryStreams(ms.Updates, nil, W)
	if err != nil {
		return passResult{}, err
	}
	out.anomalies = zombie.RunAnomalyDetectors(h, w.in.window, dets, W)
	summary.Render(io.Discard)
	out.lifespans.Durations(24*time.Hour, summary.NoisyASSet(), summary.NoisyAddrSet())
	// The digest reads the report while the archive is still mapped, as
	// zombiehunt's rendering does; its time is not the product's.
	r := passResult{wall: time.Since(start), items: w.records, attempted: 1}
	w.check(&r, &out)
	closing := time.Now()
	ms.Close()
	r.wall += time.Since(closing)
	return r, nil
}

func (w *hunt) check(r *passResult, out *huntOutput) {
	if got := huntDigest(out); got != w.want {
		r.failed = 1
		r.note = fmt.Sprintf("report digest %s, reference %s", got[:12], w.want[:12])
	}
}

func (w *hunt) measure(d time.Duration) (*measurement, error) { return closedLoop(d, w.pass) }

// sweepThresholds are the 16 thresholds of the kernel-heavy staged layer:
// the paper's Fig. 2 sweep from 15 minutes to 4 hours.
func sweepThresholds() []time.Duration {
	out := make([]time.Duration, 16)
	for i := range out {
		out[i] = time.Duration(i+1) * 15 * time.Minute
	}
	return out
}

// huntStage is what a staged pass's on-path layers leave for the extras.
type huntStage struct {
	ms         *archive.MappedSet
	tracked    *zombie.History
	all        *zombie.History
	out        huntOutput
	historyAll time.Duration
}

// stagedPath is pass() with DetectStreams split into its two public
// halves and every call under its own span.
func (w *hunt) stagedPath(root *span) (*huntStage, error) {
	W, t, intervals := w.e.workers, w.e.layers, w.in.intervals
	st := &huntStage{}
	if _, err := root.time("archive.open", func() (err error) { st.ms, err = archive.OpenMapped(w.dir); return }); err != nil {
		return nil, err
	}
	err := root.run([]step{
		{"zombie.history", func() (err error) {
			st.tracked, err = zombie.BuildHistoryStreams(st.ms.Updates, zombie.NewTrackSet(intervalPrefixes(intervals)), W)
			return
		}},
		{"zombie.detect", func() error {
			st.out.rep = (&zombie.Detector{Threshold: threshold, Parallelism: W}).DetectFromHistory(st.tracked, intervals)
			return nil
		}},
		{"zombie.summarize", func() error {
			zombie.Summarize(st.out.rep, zombie.NoisyConfig{}, 5).Render(io.Discard)
			return nil
		}},
		{"zombie.lifespan", func() (err error) {
			st.out.lifespans, err = zombie.TrackLifespans(st.ms.Dumps, intervals, zombie.LifespanConfig{Parallelism: W})
			return
		}},
		{"zombie.history_all", func() (err error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			began := time.Now()
			st.all, err = zombie.BuildHistoryStreams(st.ms.Updates, nil, W)
			st.historyAll = time.Since(began)
			runtime.ReadMemStats(&after)
			t.add("zombie.history_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			return
		}},
		{"zombie.anomaly", func() error {
			dets, err := w.anomalyDetectors(nil, W)
			if err != nil {
				return err
			}
			st.out.anomalies = zombie.RunAnomalyDetectors(st.all, w.in.window, dets, W)
			return nil
		}},
	})
	if err != nil {
		st.ms.Close()
		return nil, err
	}
	return st, nil
}

// foldUpdates runs perRecord over every update record through the
// pipeline's borrowed, W-worker fold, one decode scratch per chunk.
func (w *hunt) foldUpdates(ms *archive.MappedSet, perRecord func(mrt.Record, *bgp.Scratch) error) error {
	e := &pipeline.Engine{Workers: w.e.workers, Borrow: true, Metrics: &pipeline.Metrics{}}
	_, _, err := pipeline.FoldStreams(e, ms.Updates,
		func(pipeline.FileChunk) *bgp.Scratch { return new(bgp.Scratch) },
		func(s *bgp.Scratch, _ pipeline.FileChunk, _ int, rec mrt.Record) error { return perRecord(rec, s) })
	return err
}

// stagedExtras times the layers' other entry points and single-thread
// baselines, none of which the pass itself calls.
func (w *hunt) stagedExtras(extras *span, st *huntStage) error {
	W, t := w.e.workers, w.e.layers
	var records, updates atomic.Int64
	steps := []step{
		{"archive.load", func() error { _, err := archive.Load(w.dir); return err }},
		{"pipeline.fold", func() error {
			return w.foldUpdates(st.ms, func(mrt.Record, *bgp.Scratch) error { records.Add(1); return nil })
		}},
		{"bgp.decode", func() error {
			return w.foldUpdates(st.ms, func(rec mrt.Record, s *bgp.Scratch) error {
				m, ok := rec.(*mrt.BGP4MPMessage)
				if !ok {
					return nil
				}
				updates.Add(1)
				_, err := s.DecodeUpdate(m.Data, bgp.DecodeBorrow)
				return err
			})
		}},
		{"zombie.history_seq", func() error {
			began := time.Now()
			_, err := zombie.BuildHistoryStreams(st.ms.Updates, nil, 0)
			t.add("zombie.history_par_speedup", float64(time.Since(began))/float64(st.historyAll))
			return err
		}},
		{"zombie.sweep", func() error {
			zombie.Sweep(st.tracked, w.in.intervals, sweepThresholds(), zombie.FilterOptions{})
			return nil
		}},
	}
	for _, d := range [][2]string{
		{"zombie", "zombie.anomaly_zombie"}, {"moas", "zombie.anomaly_moas"},
		{"hyperspecific", "zombie.anomaly_hyper"}, {"community", "zombie.anomaly_storm"},
	} {
		dets, err := w.anomalyDetectors(d[:1], W)
		if err != nil {
			return err
		}
		steps = append(steps, step{d[1], func() error { zombie.RunAnomalyDetectors(st.all, w.in.window, dets, W); return nil }})
	}
	if err := extras.run(steps); err != nil {
		return err
	}
	t.set("pipeline.records", float64(records.Load()))
	t.set("bgp.updates", float64(updates.Load()))
	return nil
}

func (w *hunt) staged(log *spanLog, pass int) error {
	t := w.e.layers
	root := log.root("pass", pass)
	st, err := w.stagedPath(root)
	root.end()
	if err != nil {
		return err
	}
	defer st.ms.Close()
	var r passResult
	if w.check(&r, &st.out); r.failed > 0 {
		return fmt.Errorf("staged %s", r.note)
	}
	t.set("zombie.outbreaks", float64(len(st.out.rep.Outbreaks)))
	t.set("zombie.anomaly_findings", float64(len(st.out.anomalies.Findings)))
	t.set("zombie.lifespan_dump_mb", float64(totalBytes(st.ms.Dumps))/(1<<20))

	extras := log.root("extras", pass)
	err = w.stagedExtras(extras, st)
	extras.end()
	if err != nil || pass > 1 {
		return err
	}
	frac, err := communityOnlyFrac(w.in.updates)
	t.set("bgp.community_only_frac", frac)
	return err
}

func intervalPrefixes(intervals []beacon.Interval) []netip.Prefix {
	out := make([]netip.Prefix, len(intervals))
	for i, iv := range intervals {
		out[i] = iv.Prefix
	}
	return out
}

// communityOnlyFrac is the share of UPDATE messages that, for every prefix
// they announce, repeat the previous announcement of that (peer, prefix)
// except for the communities — Krenc et al.'s "nn" updates. It is a
// property of the input the benchmark computes itself.
func communityOnlyFrac(updates map[string][]byte) (float64, error) {
	type pair struct {
		coll   string
		peer   netip.Addr
		prefix netip.Prefix
	}
	type route struct {
		path, comms string
		agg         bgp.Aggregator
		hasAgg      bool
	}
	last := make(map[pair]route)
	var total, commOnly int
	var scratch bgp.Scratch
	for coll, data := range updates {
		rd := mrt.NewReader(bytes.NewReader(data))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			m, ok := rec.(*mrt.BGP4MPMessage)
			if !ok {
				continue
			}
			u, err := scratch.DecodeUpdate(m.Data, 0)
			if err != nil {
				return 0, err
			}
			total++
			for _, p := range u.WithdrawnAll() {
				delete(last, pair{coll, m.PeerIP, p})
			}
			announced := u.Announced()
			if len(announced) == 0 {
				continue
			}
			now := route{path: u.Attrs.ASPath.String(), comms: fmt.Sprint(u.Attrs.Communities)}
			if a := u.Attrs.Aggregator; a != nil {
				now.agg, now.hasAgg = *a, true
			}
			only := true
			for _, p := range announced {
				k := pair{coll, m.PeerIP, p}
				prev, seen := last[k]
				if !seen || prev.path != now.path || prev.agg != now.agg || prev.hasAgg != now.hasAgg || prev.comms == now.comms {
					only = false
				}
				last[k] = now
			}
			if only {
				commOnly++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(commOnly) / float64(total), nil
}

// --- canonical digests ---

// digester hashes a canonical rendering of a result.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) line(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func digestPeer(p zombie.PeerID) string {
	return fmt.Sprintf("%s/%d/%s", p.Collector, p.AS, p.Addr)
}

// reportDigest covers the detection report: every outbreak and route, in
// report order.
func reportDigest(d *digester, rep *zombie.Report) {
	d.line("report visible=%d outbreaks=%d peers=%d", rep.VisiblePrefixes, len(rep.Outbreaks), len(rep.Peers))
	for _, ob := range rep.Outbreaks {
		d.line("outbreak %s %d %d", ob.Prefix, ob.Interval.AnnounceAt.Unix(), len(ob.Routes))
		for _, r := range ob.Routes {
			d.line("route %s %s %d %d %t", digestPeer(r.Peer), r.Path, r.AnnouncedAt.UnixNano(), r.LastUpdate.UnixNano(), r.Duplicate)
		}
	}
}

// huntDigest is the canonical digest of a whole zombiehunt report:
// outbreak routes, anomaly findings in report order, lifespans.
func huntDigest(out *huntOutput) string {
	d := newDigester()
	reportDigest(d, out.rep)
	for _, a := range out.anomalies.Findings {
		d.line("anomaly %s %s %s %s %v %d %d %d %s", a.Detector, a.Kind, a.Prefix, digestPeer(a.Peer), a.Origins,
			a.Start.UnixNano(), a.End.UnixNano(), a.Count, a.Detail)
	}
	prefixes := make([]netip.Prefix, 0, len(out.lifespans.Prefixes))
	for p := range out.lifespans.Prefixes {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].String() < prefixes[j].String() })
	for _, p := range prefixes {
		pl := out.lifespans.Prefixes[p]
		d.line("lifespan %s %d episodes=%d resurrections=%d", p, pl.WithdrawAt.Unix(), len(pl.Episodes), len(pl.Resurrections))
		for _, ep := range pl.Episodes {
			d.line("episode %s %d %d %s %d", digestPeer(ep.Peer), ep.FirstSeen.Unix(), ep.LastSeen.Unix(), ep.Path, ep.Observations)
		}
		for _, rs := range pl.Resurrections {
			d.line("resurrection %s %d %d %s", digestPeer(rs.Peer), rs.LastSeen.Unix(), rs.ReappearedAt.Unix(), rs.Path)
		}
	}
	return d.sum()
}
