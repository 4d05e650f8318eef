package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// Update rewrites the golden files under testdata/. It is exported so the
// external anomaly matrix test reads the same flag.
var Update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestMetricsGolden pins every experiment's metrics at testCfg. The
// experiments run in reverse registry order, so a driver that mutated a
// memoised dataset, history or report would move the numbers of a driver
// that reads it later in the usual order.
//
//	go test ./internal/experiments -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	all := All()
	got := make(map[string]map[string]float64, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		res, err := all[i].Run(testCfg)
		if err != nil {
			t.Fatalf("%s: %v", all[i].ID, err)
		}
		got[all[i].ID] = res.Metrics
	}
	golden := filepath.Join("testdata", "metrics.golden.json")
	if *Update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, id := range sortedKeys(want) {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: in the golden but not registered", id)
		}
	}
	for _, id := range sortedKeys(got) {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: not in the golden (run with -update to regenerate)", id)
			continue
		}
		for _, k := range sortedKeys(w) {
			if _, ok := got[id][k]; !ok {
				t.Errorf("%s.%s: missing, want %v", id, k, w[k])
			}
		}
		for _, k := range sortedKeys(got[id]) {
			g := got[id][k]
			wv, ok := w[k]
			switch {
			case !ok:
				t.Errorf("%s.%s = %v: not in the golden", id, k, g)
			case math.Abs(g-wv) > 1e-9*math.Max(math.Abs(g), math.Abs(wv)):
				t.Errorf("%s.%s = %v, golden %v", id, k, g, wv)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
