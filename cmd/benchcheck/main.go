// Command benchcheck is CI's allocation fence: it reads `go test -bench
// -benchmem` output (stdin or -in) and fails when a field a BENCH_*.json row
// lists (allocs/op, B/op) has a median beyond tolerance_pct, or is missing.
//
// Usage:
//
//	go test -bench PipelineDetect -benchmem -benchtime 1x -count 3 -run NONE . \
//	  | go run ./cmd/benchcheck -baseline BENCH_detect.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"zombiescope/internal/benchstat"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_detect.json", "baseline JSON file to compare against")
	inPath := flag.String("in", "", "benchmark output file (default: stdin)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	base, err := benchstat.LoadBaseline(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	var in io.Reader = os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	samples, err := benchstat.ParseRun(in)
	if err != nil {
		log.Fatal(err)
	}
	report, ok := benchstat.Compare(base, samples)
	fmt.Print(report)
	if !ok {
		os.Exit(1)
	}
}
