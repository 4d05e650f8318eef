// Replication: run the §3 replication scenario (RIPE RIS beacons over
// three measurement periods) and show how the Aggregator-clock dedup and
// the noisy-peer filter change the outbreak counts — the paper's Table 1
// and Table 4 story in one program.
package main

import (
	"fmt"
	"log"

	"zombiescope"
	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
)

func main() {
	cfg := experiments.DefaultReplicationConfig(42, 8) // 1/8-length periods
	periods, err := experiments.RunReplication(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, pd := range periods {
		det := &zombiescope.Detector{}
		rep, err := det.Detect(pd.Updates, pd.Intervals)
		if err != nil {
			log.Fatal(err)
		}
		noisy := map[bgp.ASN]bool{experiments.NoisyReplicationPeer: true}
		with := rep.Filter(zombiescope.FilterOptions{IncludeDuplicates: true, ExcludePeerAS: noisy})
		without := rep.Filter(zombiescope.FilterOptions{ExcludePeerAS: noisy})
		w4, w6 := zombieCounts(with)
		n4, n6 := zombieCounts(without)
		fmt.Printf("%s (visible prefixes: %d)\n", pd.Name, rep.VisiblePrefixes)
		fmt.Printf("  with double-counting:    IPv4 %4d  IPv6 %4d\n", w4, w6)
		fmt.Printf("  without double-counting: IPv4 %4d  IPv6 %4d\n", n4, n6)

		// The noisy peer announces itself in the per-peer likelihoods.
		scores := zombiescope.ScorePeers(rep, false)
		flagged := zombiescope.FlagNoisyPeers(scores, zombiescope.NoisyConfig{})
		for _, p := range flagged {
			fmt.Printf("  noisy peer flagged: %s at %s\n", p.AS, p.Collector)
		}
		fmt.Println()
	}
	fmt.Println("Double-counting inflates the totals (the stuck routes persist across")
	fmt.Println("multiple beacon intervals); filtering with the Aggregator BGP clock")
	fmt.Println("removes the duplicates, as §3.2 of the paper shows.")
}

func zombieCounts(obs []zombiescope.Outbreak) (v4, v6 int) {
	for _, ob := range obs {
		if ob.Prefix.Addr().Is4() {
			v4++
		} else {
			v6++
		}
	}
	return v4, v6
}
