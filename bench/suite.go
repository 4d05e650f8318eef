package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

type suiteConfig struct {
	seed      uint64
	seconds   float64
	out       string
	sets      int
	calibrate bool
}

// runRecord is what a single-workload run leaves in <out> for the suite:
// the contract's result plus the sample count behind its median.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    bool       `json:"trace"`
	Samples  int        `json:"samples"`
	Result   *runResult `json:"result"`
}

func recordPath(out, workload string, trace bool) string {
	kind := "e2e"
	if trace {
		kind = "layers"
	}
	return filepath.Join(out, workload+"."+kind+".json")
}

func writeRecord(out string, rec runRecord) error {
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath(out, rec.Workload, rec.Trace), append(raw, '\n'), 0o644)
}

// runChild runs one workload in a child process of this same binary, so
// that its memory peak is its own, and reads back the record it leaves.
func runChild(cfg suiteConfig, workload string, trace bool) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg, "-out", cfg.out)
	cmd.Stdout = os.Stderr // the suite's stdout carries the tables only
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, traceArg, err)
	}
	raw, err := os.ReadFile(recordPath(cfg.out, workload, trace))
	if err != nil {
		return nil, err
	}
	var rec runRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// suiteSet is one pass over every workload: an untraced and a traced run
// each.
type suiteSet map[string][2]*runRecord

// runSuite runs every workload cfg.sets times, prints each set's tables,
// writes result.json for the last one, and compares the sets.
func runSuite(cfg suiteConfig) error {
	doc, err := loadBenchmarkDoc("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := sameMetrics("end_to_end", endToEnd, doc.EndToEnd); err != nil {
		return err
	}
	if err := sameMetrics("per_layer", perLayer, doc.PerLayer); err != nil {
		return err
	}
	if err := validateNames(append(metricNames(doc.EndToEnd), metricNames(doc.PerLayer)...)); err != nil {
		return err
	}
	var sets []suiteSet
	for i := 0; i < cfg.sets; i++ {
		set := make(suiteSet)
		for _, w := range workloads {
			e2e, err := runChild(cfg, w, false)
			if err != nil {
				return err
			}
			layers, err := runChild(cfg, w, true)
			if err != nil {
				return err
			}
			set[w] = [2]*runRecord{e2e, layers}
		}
		fmt.Printf("set %d of %d, seed %d, %gs windows\n", i+1, cfg.sets, cfg.seed, cfg.seconds)
		printSet(set)
		sets = append(sets, set)
	}
	if err := writeResult(cfg, sets[len(sets)-1]); err != nil {
		return err
	}
	failed := 0
	for _, set := range sets {
		for _, w := range workloads {
			for _, rec := range set[w] {
				failed += rec.Result.Failed
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed verification", failed)
	}
	if cfg.calibrate {
		printSpread(sets)
		return nil
	}
	return compareSets(sets, doc.EndToEnd)
}

// printSet prints the human tables: end-to-end metrics, then every
// per-layer metric a workload's layers produced.
func printSet(set suiteSet) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\t")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s [%s]\t", m.Name, m.Unit)
	}
	fmt.Fprintln(tw, "samples\tfailed/attempted\t")
	for _, w := range workloads {
		rec := set[w][0]
		fmt.Fprintf(tw, "%s\t", w)
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "%.4g\t", rec.Result.Metrics[m.Name].Value)
		}
		fmt.Fprintf(tw, "%d\t%d/%d\t\n", rec.Samples, rec.Result.Failed, rec.Result.Attempted)
	}
	tw.Flush()
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "per-layer metric [unit]\t")
	for _, w := range workloads {
		fmt.Fprintf(tw, "%s\t", w)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s [%s]\t", m.Name, m.Unit)
		for _, w := range workloads {
			if v := set[w][1].Result.Metrics[m.Name].Value; v != 0 {
				fmt.Fprintf(tw, "%.4g\t", v)
			} else {
				fmt.Fprint(tw, "-\t") // the workload never enters this layer
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println()
}

// writeResult writes <out>/result.json: every metric of every workload
// with its unit and sample count, and what the numbers depend on.
func writeResult(cfg suiteConfig, set suiteSet) error {
	type entry struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	type workloadResult struct {
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}
	result := struct {
		Seed      uint64                    `json:"seed"`
		Seconds   float64                   `json:"seconds"`
		Workers   int                       `json:"workers"`
		NumCPU    int                       `json:"nproc"`
		GoVersion string                    `json:"go_version"`
		Commit    string                    `json:"commit"`
		Workloads map[string]workloadResult `json:"workloads"`
	}{
		Seed: cfg.seed, Seconds: cfg.seconds, Workers: min(runtime.NumCPU(), 4), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), Workloads: make(map[string]workloadResult),
	}
	for _, w := range workloads {
		wr := workloadResult{Metrics: make(map[string]entry)}
		for _, rec := range set[w] {
			wr.Attempted += rec.Result.Attempted
			wr.Failed += rec.Result.Failed
			for name, v := range rec.Result.Metrics {
				wr.Metrics[name] = entry{Value: v.Value, Unit: v.Unit, Samples: rec.Samples}
			}
		}
		result.Workloads[w] = wr
	}
	raw, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "result.json")
	fmt.Println("wrote", path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// commit names the source revision when the tree is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func setValues(sets []suiteSet, workload, name string) []float64 {
	out := make([]float64, len(sets))
	for i, set := range sets {
		out[i] = set[workload][0].Result.Metrics[name].Value
	}
	return out
}

// printSpread prints the calibration table: per workload and end-to-end
// metric, the median over the sets, (max − min) / median, and the quartile
// spread the builder's contract bounds.
func printSpread(sets []suiteSet) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "spread over %d sets\t", len(sets))
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s median\trange\tIQR\t", m.Name)
	}
	fmt.Fprintln(tw)
	for _, w := range workloads {
		fmt.Fprintf(tw, "%s\t", w)
		for _, m := range endToEnd {
			vals := setValues(sets, w, m.Name)
			s := sortedCopy(vals)
			med := quantile(s, 0.5)
			fmt.Fprintf(tw, "%.4g\t%.1f%%\t%.1f%%\t", med, 100*(s[len(s)-1]-s[0])/med, 100*quartileSpread(vals))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's direction; negative when b is better.
func worsening(m metric, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets fails when an end-to-end metric of any workload moved, in
// either direction, by more than its own bound between two sets of runs
// of the same code.
func compareSets(sets []suiteSet, bounds []metric) error {
	var broken []string
	for i := 1; i < len(sets); i++ {
		for _, w := range workloads {
			for _, m := range bounds {
				a := sets[i-1][w][0].Result.Metrics[m.Name].Value
				b := sets[i][w][0].Result.Metrics[m.Name].Value
				if d := math.Max(worsening(m, a, b), worsening(m, b, a)); d > m.Bound {
					broken = append(broken, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%%, bound %.0f%%", w, m.Name, a, b, 100*d, 100*m.Bound))
				}
			}
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("sets of runs of the same code disagree:\n  %s", strings.Join(broken, "\n  "))
	}
	if len(sets) > 1 {
		fmt.Printf("%d sets agree on every end-to-end metric within its bound\n", len(sets))
	}
	return nil
}
