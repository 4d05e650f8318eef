// Command beaconsim runs a beacon deployment scenario through the BGP
// simulator and writes the resulting MRT archives (updates and RIB dumps)
// to disk, where zombiehunt (or any MRT tool) can analyze them.
//
// Usage:
//
//	beaconsim -out ./archive [-scenario author|replication] [-seed 42] [-scale 8]
//
// The author scenario reproduces the paper's §4/§5 deployment (AS210312's
// IPv6 beacons, the scripted zombie case studies, ROA removal, a year of
// 8-hourly RIB dumps). The replication scenario reproduces the §3 RIS
// beacon periods.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"zombiescope/internal/archive"
	"zombiescope/internal/experiments"
)

func main() {
	var (
		out      = flag.String("out", "archive", "output directory")
		scenario = flag.String("scenario", "author", "author | replication")
		seed     = flag.Uint64("seed", 42, "scenario seed")
		scale    = flag.Int("scale", 8, "scale divisor (1 = paper-length)")
	)
	flag.Parse()

	switch *scenario {
	case "author":
		d, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(*seed, *scale))
		if err != nil {
			fatal(err)
		}
		if err := archive.Write(*out, &archive.Set{Updates: d.Updates, Dumps: d.Dumps}); err != nil {
			fatal(err)
		}
		fmt.Printf("author scenario: %d announcements, %d beacon intervals\n",
			d.Announcements, len(d.Intervals))
		for name, c := range d.Cases {
			fmt.Printf("  scripted case %-12s prefix %-24s announced %s\n",
				name, c.Prefix.String(), c.AnnounceAt.Format("2006-01-02 15:04"))
		}
	case "replication":
		periods, err := experiments.RunReplication(experiments.DefaultReplicationConfig(*seed, *scale))
		if err != nil {
			fatal(err)
		}
		for _, pd := range periods {
			dir := filepath.Join(*out, sanitize(pd.Name))
			if err := archive.Write(dir, &archive.Set{Updates: pd.Updates}); err != nil {
				fatal(err)
			}
			fmt.Printf("period %q: %d intervals, %d+%d announcements\n",
				pd.Name, len(pd.Intervals), pd.Ann4, pd.Ann6)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	fmt.Printf("MRT archives written under %s\n", *out)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
