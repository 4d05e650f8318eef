// Command mrtinspect decodes an MRT file (BGP4MP updates or TABLE_DUMP_V2
// RIB dumps) and prints one line per record, similar in spirit to bgpdump.
// With -store it instead inspects a zombied event-store directory:
// per-segment headers, dictionary sizes and per-collector counts.
//
// Usage:
//
//	mrtinspect file.mrt
//	mrtinspect -prefix 2a0d:3dc1:1851::/48 file.mrt   # filter to one prefix
//	mrtinspect -count file.mrt                        # summary only
//	mrtinspect -store ./store                         # event-store layout
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"

	"zombiescope/internal/mrt"
)

func main() {
	var (
		prefixStr = flag.String("prefix", "", "only show records touching this prefix")
		countOnly = flag.Bool("count", false, "print record counts only")
		storeDir  = flag.String("store", "", "inspect a zombied event-store directory instead of an MRT file")
	)
	flag.Parse()
	if *storeDir != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: mrtinspect -store <dir>")
			os.Exit(2)
		}
		if err := inspectStore(os.Stdout, *storeDir); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mrtinspect [-prefix P] [-count] <file.mrt> | mrtinspect -store <dir>")
		os.Exit(2)
	}
	var filter netip.Prefix
	if *prefixStr != "" {
		p, err := netip.ParsePrefix(*prefixStr)
		if err != nil {
			fatal(err)
		}
		filter = p
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	rd := mrt.NewReader(f)
	counts := map[string]int{}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		switch r := rec.(type) {
		case *mrt.BGP4MPMessage:
			counts["BGP4MP_MESSAGE"]++
			if *countOnly {
				continue
			}
			u, err := r.Update()
			if err != nil {
				fmt.Printf("%s|%s|AS%d|<undecodable: %v>\n",
					r.Timestamp.Format("2006-01-02 15:04:05"), r.PeerIP, r.PeerAS, err)
				continue
			}
			for _, p := range u.WithdrawnAll() {
				if filter.IsValid() && p != filter {
					continue
				}
				fmt.Printf("%s|W|%s|AS%d|%s\n",
					r.Timestamp.Format("2006-01-02 15:04:05"), r.PeerIP, r.PeerAS, p)
			}
			for _, p := range u.Announced() {
				if filter.IsValid() && p != filter {
					continue
				}
				agg := ""
				if u.Attrs.Aggregator != nil {
					agg = fmt.Sprintf("|agg %s %s", u.Attrs.Aggregator.ASN, u.Attrs.Aggregator.Addr)
				}
				fmt.Printf("%s|A|%s|AS%d|%s|%s%s\n",
					r.Timestamp.Format("2006-01-02 15:04:05"), r.PeerIP, r.PeerAS, p, u.Attrs.ASPath, agg)
			}
		case *mrt.BGP4MPStateChange:
			counts["BGP4MP_STATE_CHANGE"]++
			if *countOnly {
				continue
			}
			fmt.Printf("%s|STATE|%s|AS%d|%s -> %s\n",
				r.Timestamp.Format("2006-01-02 15:04:05"), r.PeerIP, r.PeerAS, r.OldState, r.NewState)
		case *mrt.PeerIndexTable:
			counts["PEER_INDEX_TABLE"]++
			if *countOnly {
				continue
			}
			fmt.Printf("%s|PEER_INDEX|%s|%d peers\n",
				r.Timestamp.Format("2006-01-02 15:04:05"), r.ViewName, len(r.Peers))
		case *mrt.RIB:
			counts["RIB"]++
			if *countOnly {
				continue
			}
			if filter.IsValid() && r.Prefix != filter {
				continue
			}
			for _, e := range r.Entries {
				fmt.Printf("%s|RIB|%s|peer#%d|%s\n",
					r.Timestamp.Format("2006-01-02 15:04:05"), r.Prefix, e.PeerIndex, e.Attrs.ASPath)
			}
		}
	}
	if *countOnly {
		for k, v := range counts {
			fmt.Printf("%-20s %d\n", k, v)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
