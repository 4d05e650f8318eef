package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what a workload gets from the driver.
type env struct {
	seed uint64
	// authorSeed is the author-scenario seed derived from seed (see
	// resolveAuthorSeed); zero on workloads that generate something else.
	authorSeed uint64
	workers    int    // W: passed wherever the product takes a worker count
	subs       int    // loopback subscriber connections of the live workloads
	dir        string // this process's scratch directory, removed at exit
	layers     *layerTable
}

// workload is one benchmark workload. The driver calls setUp several
// times (each call replaces the previous state), reference once, then
// measure; with tracing on, staged runs after a shorter measure.
type workload interface {
	// setUp generates the inputs from the seed and writes whatever the
	// product reads from disk.
	setUp() error
	// reference computes the expected outputs by the slow sequential path
	// and checks their non-trivial floors.
	reference() error
	// measure runs untraced operations for about the given time, after one
	// untimed warm-up, verifying every output against the reference.
	measure(d time.Duration) (*measurement, error)
	// staged runs one pass with the layers called one at a time, each under
	// a span: the on-path layers under a "pass" root, the others (a layer's
	// second entry point, a sequential baseline) under an "extras" root.
	staged(log *spanLog, pass int) error
}

// measurement is what one untraced timed window produced.
type measurement struct {
	opMillis  []float64     // one sample per operation
	probes    []float64     // probe times taken beside the operations, ms
	closed    bool          // the operations are passes of a closed loop
	items     int           // MRT records (simulator events) completed
	opItems   int           // items one operation completes
	wall      time.Duration // time the operations took, verification excluded
	attempted int
	failed    int
	notes     []string // what failed, for the human reader
	allocMB   float64  // heap allocated over the window
	gcPauseMs float64  // GC stop-the-world time over the window
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 8 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// passResult is one closed-loop operation's outcome.
type passResult struct {
	wall  time.Duration
	items int
	// attempted/failed count the pass's checked outputs; a pass with no
	// finer-grained checks is one attempt.
	attempted, failed int
	note              string
}

// closedLoop is the one-caller closed loop every workload but live-paced
// uses: one untimed warm-up pass, then back-to-back passes until the
// window is spent (at least three, so a median exists).
func closedLoop(d time.Duration, pass func() (passResult, error)) (*measurement, error) {
	if _, err := pass(); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	m := &measurement{closed: true}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for m.wall < d || len(m.opMillis) < 3 {
		m.probes = append(m.probes, probeMillis())
		r, err := pass()
		if err != nil {
			return nil, err
		}
		m.opMillis = append(m.opMillis, float64(r.wall)/1e6)
		m.wall += r.wall
		m.items += r.items
		m.opItems = r.items
		m.attempted += r.attempted
		if r.failed > 0 {
			m.failed += r.failed - 1
			m.fail("pass %d: %s", len(m.opMillis), r.note)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return m, nil
}

// A run sets up at least setupRepeats times, and keeps going until
// setupFloor has passed when one set-up takes milliseconds; setup_s is the
// median, so a short set-up is not at the mercy of one slow call.
const (
	setupRepeats = 3
	setupFloor   = 500 * time.Millisecond
)

// runResult is one benchmark run: the contract's result line plus what
// the human table prints beside it.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	samples   int
	notes     []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload is one whole run of one workload in this process.
func runWorkload(name string, seed uint64, window time.Duration, trace bool, outDir string) (*runResult, error) {
	dir, err := os.MkdirTemp(outDir, "tmp-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, workers: min(runtime.NumCPU(), 4), subs: min(runtime.NumCPU(), 2), dir: dir, layers: newLayerTable()}
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}

	var setups, setupProbes []float64
	for begun := time.Now(); len(setups) < setupRepeats || (time.Since(begun) < setupFloor && len(setups) < 200); {
		setupProbes = append(setupProbes, probeMillis())
		start := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	// Hand set-up's memory back so the resident-set peak is the timed
	// window's own.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	if trace {
		window /= 2
	}
	m, err := w.measure(window)
	peakMB := rss.stop()
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue),
		samples:   len(m.opMillis),
		notes:     m.notes,
	}
	sorted := sortedCopy(m.opMillis)
	p50 := quantile(sorted, 0.5)

	if !trace {
		speed := machineSpeed(m.probes)
		itemsPerS := float64(m.items) / m.wall.Seconds()
		if m.closed {
			itemsPerS /= speed // an open loop's goodput is set by its rate, not by the machine
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d ops of %d items, op p50 %.4g ms (min %.4g, max %.4g), set-up %.4g s, peak RSS %.1f MB; probe %.4g ms beside the ops, %.4g ms beside set-up (reference %v)\n",
			name, len(sorted), m.opItems, p50, sorted[0], sorted[len(sorted)-1], median(setups), peakMB,
			median(m.probes), median(setupProbes), probeRef)
		values := map[string]float64{
			"item_p50_us": 1000 * p50 / float64(m.opItems) * speed,
			"items_per_s": itemsPerS,
			"peak_rss_mb": peakMB,
			"setup_s":     median(setups) * machineSpeed(setupProbes),
		}
		for _, em := range endToEnd {
			res.Metrics[em.Name] = metricValue{Value: values[em.Name], Unit: em.Unit}
		}
		return res, nil
	}

	log := newSpanLog()
	for pass := 1; pass <= stagedPasses; pass++ {
		if err := w.staged(log, pass); err != nil {
			return nil, fmt.Errorf("staged pass %d: %w", pass, err)
		}
	}
	t := e.layers
	t.addSpans(log)
	passMillis := p50
	if !m.closed {
		passMillis = 0 // an open-loop window has no pass time to compare with
	}
	cover, overhead := log.coverage(passMillis)
	t.set("bench.layer_cover_pct", cover)
	t.set("bench.trace_overhead_pct", overhead)
	t.set("bench.passes", float64(len(sorted)))
	if q, ok := highestPercentile(len(sorted)); ok {
		t.set("bench.op_tail_q", q)
		t.set("bench.op_tail_ms", quantile(sorted, q))
	}
	t.set("bench.alloc_mb_per_pass", m.allocMB/float64(len(sorted)))
	t.set("bench.gc_pause_ms", m.gcPauseMs)
	t.set("bench.workers", float64(e.workers))
	t.set("bench.probe_ms", median(m.probes))
	for _, lm := range perLayer {
		res.Metrics[lm.Name] = metricValue{Value: t.value(lm.Name), Unit: lm.Unit}
	}
	if err := log.write(fmt.Sprintf("%s/%s.trace.json", outDir, name)); err != nil {
		return nil, err
	}
	return res, nil
}

// stagedPasses is how many staged passes a traced run makes; a layer's
// metric is the median over them.
const stagedPasses = 5

// rssSampler tracks the highest VmRSS seen while it runs. VmHWM would be
// exact but is a whole-process high-water mark, dominated here by input
// generation and the reference path rather than by the timed passes.
type rssSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), peak: readRSSMB()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				if v := readRSSMB(); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	if v := readRSSMB(); v > s.peak {
		s.peak = v
	}
	return s.peak
}

// readRSSMB reads this process's resident set from /proc/self/status; on
// a system without it the Go runtime's own footprint stands in.
func readRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}
