// Package benchstat fences the allocs/op and B/op medians of `go test -bench`
// output against a committed JSON baseline, on every machine (cmd/benchcheck).
package benchstat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metric is one benchmark's cost. A nil field is one a baseline row does
// not fence, or one the benchmark output did not print.
type Metric struct {
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// Baseline is a committed fence file (e.g. BENCH_detect.json). A row, keyed by
// sub-benchmark ("workers=1") or full benchmark name, gates the fields it lists.
type Baseline struct {
	Benchmark    string            `json:"benchmark"`
	Command      string            `json:"command"`
	Note         string            `json:"note"`
	TolerancePct float64           `json:"tolerance_pct"`
	Baseline     map[string]Metric `json:"baseline"`
}

// LoadBaseline reads and validates a baseline file. An unknown field (a
// stale ns_per_op row, say) is an error, not a gate that never runs.
func LoadBaseline(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Benchmark == "" || b.TolerancePct <= 0 || len(b.Baseline) == 0 {
		return nil, fmt.Errorf("%s: needs benchmark, tolerance_pct and baseline entries", path)
	}
	return &b, nil
}

// ParseRun parses `go test -bench` output into samples keyed by benchmark name
// without the -GOMAXPROCS suffix; a result without -benchmem has nil fields.
func ParseRun(r io.Reader) (map[string][]Metric, error) {
	samples := make(map[string][]Metric)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var m Metric
		// fields[1] is the iteration count; after that come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "B/op":
				m.BytesPerOp = &v
			case "allocs/op":
				m.AllocsPerOp = &v
			}
		}
		name := trimProcSuffix(fields[0])
		samples[name] = append(samples[name], m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return samples, nil
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

func trimProcSuffix(name string) string { return procSuffix.ReplaceAllString(name, "") }

// Median returns the per-field median across samples, each field ranked
// independently to discard one-off noise. A field any sample lacks is nil.
// Like slices.Max, it panics if samples is empty.
func Median(samples []Metric) Metric {
	median := func(get func(Metric) *float64) *float64 {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			if get(s) == nil {
				return nil
			}
			vs[i] = *get(s)
		}
		sort.Float64s(vs)
		n := len(vs)
		med := (vs[(n-1)/2] + vs[n/2]) / 2 // the middle value, or the middle pair's mean
		return &med
	}
	return Metric{
		BytesPerOp:  median(func(m Metric) *float64 { return m.BytesPerOp }),
		AllocsPerOp: median(func(m Metric) *float64 { return m.AllocsPerOp }),
	}
}

// Compare renders a report and fails (ok=false) when a row's benchmark has no
// samples, lacks a field the row lists, or exceeds it beyond the tolerance.
func Compare(base *Baseline, samples map[string][]Metric) (report string, ok bool) {
	keys := make([]string, 0, len(base.Baseline))
	for k := range base.Baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	ok = true
	for _, k := range keys {
		name := k
		if !strings.HasPrefix(k, "Benchmark") {
			name = base.Benchmark + "/" + k
		}
		if len(samples[name]) == 0 {
			fmt.Fprintf(&sb, "FAIL %s: no samples in benchmark output\n", name)
			ok = false
			continue
		}
		got, want := Median(samples[name]), base.Baseline[k]
		ok = check(&sb, name, "allocs/op", got.AllocsPerOp, want.AllocsPerOp, base.TolerancePct) && ok
		ok = check(&sb, name, "B/op", got.BytesPerOp, want.BytesPerOp, base.TolerancePct) && ok
	}
	return sb.String(), ok
}

// check gates one field a baseline row lists (want != nil). A zero want
// admits no allocation at all: it is the "this path is allocation-free" fence.
func check(w io.Writer, name, unit string, got, want *float64, tolPct float64) bool {
	if want == nil {
		return true
	}
	if got == nil {
		fmt.Fprintf(w, "FAIL %s: %s missing from benchmark output (run with -benchmem)\n", name, unit)
		return false
	}
	verdict, limit := "ok  ", *want*(1+tolPct/100)
	if *got > limit {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s %s: %s %.0f vs baseline %.0f (limit %.0f)\n", verdict, name, unit, *got, *want, limit)
	return *got <= limit
}
