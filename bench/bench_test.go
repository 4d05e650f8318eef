package main

import (
	"math"
	"testing"
	"time"

	"zombiescope/internal/experiments"
	"zombiescope/internal/zombie"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, // p90 of 99 samples has 9.9 beyond it
		{100, 0.90, true}, {199, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true},
		{1000, 0.99, true}, {9999, 0.99, true},
		{10000, 0.999, true}, {1 << 20, 0.999, true},
	} {
		q, ok := highestPercentile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(sortedCopy(xs), 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
}

// The generator's due times depend on the record index alone: an op that
// overruns makes the following calls late, and they catch the schedule up
// instead of shifting it.
func TestPaceIsOpenLoop(t *testing.T) {
	const n, slowAt, stall = 1000, 20, 20 * time.Millisecond
	late := make([]time.Duration, n)
	t0 := time.Now().Add(time.Millisecond)
	var last time.Time
	pace(t0, n, func(k int, l time.Duration) {
		late[k] = l
		if k == slowAt {
			time.Sleep(stall)
		}
		last = time.Now()
	})
	for k := 1; k < n; k++ {
		if got, want := dueAfter(k)-dueAfter(k-1), time.Second/pacedRate; got != want {
			t.Fatalf("due gap at %d is %v, want %v", k, got, want)
		}
	}
	if late[slowAt+1] < stall-time.Second/pacedRate {
		t.Errorf("call after the stall was %v late, want about %v: the stall's wait is not accounted", late[slowAt+1], stall)
	}
	for k := range late {
		if late[k] < 0 {
			t.Errorf("call %d ran %v before its due time", k, -late[k])
		}
	}
	// 1000 records at 10 kHz are due within 100 ms; a closed loop would end
	// a whole stall later.
	if over := last.Sub(t0.Add(dueAfter(n - 1))); over > stall/2 {
		t.Errorf("last call ended %v after its due time: the schedule shifted by the stall", over)
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	doc, err := loadBenchmarkDoc("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMetrics("end_to_end", endToEnd, doc.EndToEnd); err != nil {
		t.Error(err)
	}
	if err := sameMetrics("per_layer", perLayer, doc.PerLayer); err != nil {
		t.Error(err)
	}
	if err := validateNames(append(metricNames(endToEnd), metricNames(perLayer)...)); err != nil {
		t.Error(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if err := validateNames(names); err != nil {
		t.Error(err)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the driver", i, names[i], w)
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "a/b", "päss"} {
		if validateNames([]string{bad}) == nil {
			t.Errorf("validateNames accepted %q", bad)
		}
	}
	if validateNames([]string{"a", "a"}) == nil {
		t.Error("validateNames accepted a duplicate")
	}
}

// The report digest must not depend on the worker count, or a pass could
// not be checked against the sequential reference.
func TestDigestStableAcrossWorkers(t *testing.T) {
	d, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(77, 16))
	if err != nil {
		t.Fatal(err)
	}
	in := &huntInput{updates: d.Updates, dumps: d.Dumps, intervals: d.Intervals,
		window: zombie.Window{From: d.Config.Approach1Start, To: d.Config.Approach2End}}
	digest := func(workers int) string {
		w := &hunt{in: in}
		var out huntOutput
		if out.rep, err = (&zombie.Detector{Threshold: threshold, Parallelism: workers}).Detect(in.updates, in.intervals); err != nil {
			t.Fatal(err)
		}
		if out.lifespans, err = zombie.TrackLifespans(in.dumps, in.intervals, zombie.LifespanConfig{Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		h, err := zombie.BuildHistoryParallel(in.updates, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		dets, err := w.anomalyDetectors(nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		out.anomalies = zombie.RunAnomalyDetectors(h, in.window, dets, workers)
		if len(out.rep.Outbreaks) == 0 {
			t.Fatal("no outbreaks: the digest would cover nothing")
		}
		return huntDigest(&out)
	}
	if seq, par := digest(0), digest(2); seq != par {
		t.Errorf("digest with 0 workers %s, with 2 workers %s", seq[:12], par[:12])
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	log := newSpanLog()
	root := log.root("pass", 1)
	root.time("zombie.detect", func() error { time.Sleep(4 * time.Millisecond); return nil })
	outer := root.child("zombie.anomaly")
	outer.time("zombie.anomaly_moas", func() error { time.Sleep(2 * time.Millisecond); return nil })
	outer.end()
	root.end()
	self := log.selfMillis()
	if self[2] >= self[3] { // anomaly's self time excludes its child
		t.Errorf("parent self %v ms not below child %v ms", self[2], self[3])
	}
	cover, overhead := log.coverage(float64(log.recs[0].end.Sub(log.recs[0].start)) / 1e6)
	if cover < 50 || cover > 100 || math.Abs(overhead) > 1e-9 {
		t.Errorf("coverage = %v%%, overhead %v%%; want most of the pass and 0", cover, overhead)
	}
	table := newLayerTable()
	table.addSpans(log)
	if n := len(table.samples["zombie.detect_ms"]); n != 1 || table.value("zombie.detect_ms") < 4 {
		t.Errorf("zombie.detect_ms = %v from %d samples", table.value("zombie.detect_ms"), n)
	}
	if err := log.write(t.TempDir() + "/trace.json"); err != nil {
		t.Error(err)
	}
}

// smoke sets a workload up once and measures a short window.
func smoke(t *testing.T, name string) *measurement {
	t.Helper()
	e := &env{seed: 77, workers: 2, subs: 2, dir: t.TempDir(), layers: newLayerTable()}
	w, err := newWorkload(name, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	m, err := w.measure(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Every workload runs and verifies clean on a 300 ms window. The big
// inputs make this take about half a minute, so -short skips it.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every workload's full input")
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			m := smoke(t, name)
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("failed %d of %d: %v", m.failed, m.attempted, m.notes)
			}
			if len(m.opMillis) == 0 || m.items == 0 || m.wall <= 0 {
				t.Errorf("%d ops, %d items in %v", len(m.opMillis), m.items, m.wall)
			}
		})
	}
}

// A whole traced run prints every per-layer metric, and the layers its
// workload never enters read 0.
func TestTracedRunPrintsEveryLayer(t *testing.T) {
	res, err := runWorkload("sim-beacon", 77, 300*time.Millisecond, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, failed %d: %v", res.Correct, res.Failed, res.notes)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("%s missing", m.Name)
		}
	}
	for _, name := range []string{"netsim.run_ms", "netsim.seq_run_ms", "netsim.events", "collector.encode_ms", "bench.layer_cover_pct"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, name := range []string{"archive.open_ms", "zombie.history_ms", "eventstore.append_ns_per_event", "eventstore.scan_ms"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %v on sim-beacon, want 0", name, v)
		}
	}
}
