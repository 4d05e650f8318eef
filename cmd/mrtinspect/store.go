package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"zombiescope/internal/eventstore"
)

// inspectStore opens an event-store directory read-only and prints its
// segment layout: header fields, dictionary sizes and per-collector event
// counts, then a store-wide rollup. The counts come from one Scan, each
// event credited to the segment whose sequence range holds it.
func inspectStore(w io.Writer, dir string) error {
	st, err := eventstore.Open(eventstore.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()

	infos := st.SegmentInfos()
	if len(infos) == 0 {
		fmt.Fprintln(w, "empty store")
		return nil
	}
	byColl := make([]map[string]uint64, len(infos))
	for i := range byColl {
		byColl[i] = map[string]uint64{}
	}
	i := 0
	if err := st.Scan(eventstore.Query{}, func(ev eventstore.Event) error {
		for i < len(infos)-1 && ev.Seq > infos[i].LastSeq {
			i++
		}
		byColl[i][ev.Collector]++
		return nil
	}); err != nil {
		return err
	}
	const tsFmt = "2006-01-02 15:04:05"
	totalEvents, totalBytes := 0, int64(0)
	totalByColl := map[string]uint64{}
	for i, info := range infos {
		state := "sealed"
		if !info.Sealed {
			state = "active"
		}
		fmt.Fprintf(w, "%s  %s  seqs %d-%d  events %d  bytes %d  %s .. %s",
			filepath.Base(info.Path), state, info.FirstSeq, info.LastSeq,
			info.Events, info.Bytes,
			info.MinTime.UTC().Format(tsFmt), info.MaxTime.UTC().Format(tsFmt))
		if info.TornBytes > 0 {
			fmt.Fprintf(w, "  torn-tail %d bytes", info.TornBytes)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  index: %d collectors, %d peers, %d prefixes\n",
			info.Collectors, info.Peers, info.Prefixes)
		fmt.Fprintf(w, "  per-collector:")
		printCounts(w, byColl[i])
		for name, n := range byColl[i] {
			totalByColl[name] += n
		}
		totalEvents += info.Events
		totalBytes += info.Bytes
	}
	fmt.Fprintf(w, "total: %d segments, %d events, %d bytes, seqs %d-%d\n",
		len(infos), totalEvents, totalBytes, st.FirstSeq(), st.LastSeq())
	fmt.Fprintf(w, "per-collector:")
	printCounts(w, totalByColl)
	return nil
}

// printCounts writes " name=n" per collector in name order, then a newline.
func printCounts(w io.Writer, counts map[string]uint64) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, " %s=%d", name, counts[name])
	}
	fmt.Fprintln(w)
}
