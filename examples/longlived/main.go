// Longlived: run the §4/§5 author-beacon scenario (96 IPv6 /48s per day at
// full scale, scripted zombie case studies, ROA removal, a year of RIB
// dumps) and study zombie lifespans and resurrections — the paper's §5 in
// one program.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"zombiescope"
	"zombiescope/internal/experiments"
)

func main() {
	cfg := experiments.DefaultAuthorConfig(42, 8) // slot stride 8 (12 beacons/day)
	data, err := experiments.RunAuthorScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d beacon announcements over %s..%s\n\n",
		data.Announcements,
		cfg.Approach1Start.Format(time.DateOnly), cfg.Approach2End.Format(time.DateOnly))

	// Detect zombies from the update archives.
	det := &zombiescope.Detector{}
	rep, err := det.Detect(data.Updates, data.Intervals)
	if err != nil {
		log.Fatal(err)
	}
	clean := rep.Filter(zombiescope.FilterOptions{ExcludePeerAS: data.NoisyPeerAS})
	fmt.Printf("zombie outbreaks at the 90-minute threshold (noisy peers excluded): %d of %d announcements\n\n",
		len(clean), data.Announcements)

	// Follow them through a year of 8-hourly RIB dumps.
	lr, err := zombiescope.TrackLifespans(data.Dumps, data.Intervals, zombiescope.LifespanConfig{})
	if err != nil {
		log.Fatal(err)
	}
	durs := lr.Durations(24*time.Hour, data.NoisyPeerAS, data.NoisyPeerAddr)
	fmt.Printf("outbreaks lasting at least one day: %d\n", len(durs))
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	for _, d := range durs {
		fmt.Printf("  %6.1f days\n", d.Hours()/24)
	}

	// Resurrections: stuck routes re-announced long after the withdrawal.
	fmt.Println("\nresurrections (no beacon announcement explains the reappearance):")
	for _, r := range lr.Resurrections() {
		fmt.Printf("  %s at %s: vanished %s, reappeared %s\n",
			r.Prefix, r.Peer.AS,
			r.LastSeen.Format(time.DateOnly), r.ReappearedAt.Format(time.DateOnly))
	}

	// The headline case: the twice-resurrected prefix (the paper's
	// 2a0d:3dc1:1851::/48, stuck ~8.5 months in total).
	if c, ok := data.Cases["resurrection"]; ok {
		if pl := lr.Prefixes[c.Prefix]; pl != nil {
			if total, ok := pl.Duration(nil, nil); ok {
				fmt.Printf("\nheadline zombie %s: stuck for %.1f days (~%.1f months) across %d visibility episodes\n",
					c.Prefix, total.Hours()/24, total.Hours()/24/30, len(pl.Episodes))
			}
		}
	}
}
