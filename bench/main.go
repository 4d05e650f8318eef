// Command bench is zombiescope's end-to-end benchmark: six workloads over
// the whole path — bytes of MRT on disk to a report, and ingest to a frame
// on a subscriber's socket — with a per-layer budget from a separate
// traced run. README.md describes the workloads and metrics; BENCHMARK.json
// at the repository root is the machine-readable contract.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash bench/run.sh --workload hunt-author --seed 77 --seconds 10 --trace 0
//
// prints progress on stderr and one JSON result line on stdout. The whole
// suite, as a table plus <out>/result.json:
//
//	bash bench/run.sh --workload all [--repeat 2 | --calibrate]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workloads lists the workload names in BENCHMARK.json's order.
var workloads = []string{"hunt-author", "hunt-storm", "live-drain", "live-paced", "recover", "sim-beacon"}

func newWorkload(name string, e *env) (workload, error) {
	// The slot stride of the author scenario behind the workload, if any.
	stride := map[string]int{"hunt-author": 2, "live-drain": 4, "live-paced": 2, "recover": 4}[name]
	if stride != 0 {
		if err := e.resolveAuthorSeed(stride); err != nil {
			return nil, err
		}
	}
	switch name {
	case "hunt-author":
		return &hunt{e: e, generate: func(e *env) (*huntInput, error) { return generateAuthor(e, stride) }, minOutbreaks: 100}, nil
	case "hunt-storm":
		return &hunt{e: e, generate: func(e *env) (*huntInput, error) { return generateStorm(e.seed) }, minCommunity: 1000}, nil
	case "live-drain":
		return &liveDrain{e: e, stride: stride}, nil
	case "live-paced":
		return &livePaced{e: e, stride: stride}, nil
	case "recover":
		return &recoverWorkload{e: e, stride: stride}, nil
	case "sim-beacon":
		return &simBeacon{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v, or all)", name, workloads)
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all for the suite")
		seed      = flag.Uint64("seed", 77, "input seed; the program under test sees only the generated inputs")
		seconds   = flag.Float64("seconds", 10, "timed window per workload")
		trace     = flag.Int("trace", 0, "1 runs the staged, span-recording passes and prints the per-layer metrics")
		out       = flag.String("out", ".bench_build/out", "directory for traces, result.json and scratch data")
		repeat    = flag.Int("repeat", 1, "suite mode: run the suite this many times and fail if two sets differ by more than a bound")
		calibrate = flag.Bool("calibrate", false, "suite mode: run the suite five times and print the spread table")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *name != "all" {
		res, err := runWorkload(*name, *seed, window, *trace == 1, *out)
		if err != nil {
			fatal(err)
		}
		for _, n := range res.notes {
			fmt.Fprintln(os.Stderr, "bench:", *name+":", n)
		}
		rec := runRecord{Workload: *name, Seed: *seed, Trace: *trace == 1, Samples: res.samples, Result: res}
		if err := writeRecord(*out, rec); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	sets := *repeat
	if *calibrate {
		sets = 5
	}
	if err := runSuite(suiteConfig{seed: *seed, seconds: *seconds, out: *out, sets: sets, calibrate: *calibrate}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
