package experiments

import (
	"fmt"
	"strings"

	"zombiescope/internal/analysis"
	"zombiescope/internal/zombie"
)

func init() {
	register(Experiment{
		ID:    "Fig5",
		Title: "CDF of zombie emergence rate per <beacon, peer AS>",
		Paper: "With double-counting, 18.76% of pairs show no zombies, half the pairs are <0.52% likely, averages 0.88% (v4) / 1.82% (v6); deduped: half <0.26%, averages 0.54% (v4) / 1.58% (v6).",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "Fig6",
		Title: "CDF of AS path lengths: normal paths vs zombie paths",
		Paper: "Zombie paths are longer than normal paths (path hunting); 96.1% of IPv4 zombie paths differ from the pre-withdrawal path (95.54% deduped); IPv6: 90.03% / 79.61%.",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "Fig7",
		Title: "CDF of concurrent zombie outbreaks",
		Paper: "22.35% of IPv4 / 34.04% of IPv6 outbreaks occur singly (26.38% / 37.97% deduped); 26.96% of IPv4 outbreaks hit all beacon prefixes simultaneously.",
		Run:   runFig7,
	})
}

func runFig5(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	sb.WriteString("Fig 5: CDF of zombie emergence rate per <beacon, peer AS>\n\n")
	periods, err := replicationData(cfg)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	for _, includeDup := range []bool{true, false} {
		rates4, rates6 := []float64{}, []float64{}
		zeroPairs, pairs := 0, 0
		for _, det := range periods {
			opts := zombie.FilterOptions{IncludeDuplicates: includeDup, ExcludePeerAS: noisyReplicationAS}
			for _, r := range zombie.EmergenceRates(det.report, opts) {
				pairs++
				if r.Rate == 0 {
					zeroPairs++
				}
				if r.Prefix.Addr().Is4() {
					rates4 = append(rates4, r.Rate)
				} else {
					rates6 = append(rates6, r.Rate)
				}
			}
		}
		c4, c6 := analysis.NewCDF(rates4), analysis.NewCDF(rates6)
		variant, key := "with double-counting", "dc"
		if !includeDup {
			variant, key = "without double-counting", "nodc"
		}
		fmt.Fprintf(&sb, "-- %s --\n", variant)
		fmt.Fprintf(&sb, "  pairs with no zombies at all: %s (paper, with dc: 18.76%%)\n",
			analysis.Pct(float64(zeroPairs)/float64(max(pairs, 1))))
		fmt.Fprintf(&sb, "  IPv4: median %s, mean %s   IPv6: median %s, mean %s\n\n",
			analysis.Pct(c4.Median()), analysis.Pct(c4.Mean()),
			analysis.Pct(c6.Median()), analysis.Pct(c6.Mean()))
		metrics[key+".mean4"] = c4.Mean()
		metrics[key+".mean6"] = c6.Mean()
		metrics[key+".median4"] = c4.Median()
		metrics[key+".median6"] = c6.Median()
		metrics[key+".zeroFrac"] = float64(zeroPairs) / float64(max(pairs, 1))
	}
	return &Result{ID: "Fig5", Text: sb.String(), Metrics: metrics}, nil
}

func runFig6(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	sb.WriteString("Fig 6: CDF of AS path lengths (normal vs zombie)\n\n")
	periods, err := replicationData(cfg)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	for _, includeDup := range []bool{true, false} {
		var normalNormal, normalZombie, zombiePath []int
		changed4, total4, changed6, total6 := 0, 0, 0, 0
		for _, det := range periods {
			for _, po := range det.report.PathObs {
				if po.Peer.AS == NoisyReplicationPeer {
					continue
				}
				if po.Zombie {
					if po.Duplicate && !includeDup {
						continue
					}
					if po.NormalLen > 0 {
						normalZombie = append(normalZombie, po.NormalLen)
					}
					zombiePath = append(zombiePath, po.ZombieLen)
					if po.Prefix.Addr().Is4() {
						total4++
						if po.PathChanged {
							changed4++
						}
					} else {
						total6++
						if po.PathChanged {
							changed6++
						}
					}
				} else if po.NormalLen > 0 {
					normalNormal = append(normalNormal, po.NormalLen)
				}
			}
		}
		cn, cz, cp := analysis.NewCDFInts(normalNormal), analysis.NewCDFInts(normalZombie), analysis.NewCDFInts(zombiePath)
		variant, key := "with double-counting", "dc"
		if !includeDup {
			variant, key = "without double-counting", "nodc"
		}
		fmt.Fprintf(&sb, "-- %s --\n", variant)
		fmt.Fprintf(&sb, "  normal path @ normal peers: median %.1f mean %.2f (n=%d)\n", cn.Median(), cn.Mean(), cn.Len())
		fmt.Fprintf(&sb, "  normal path @ zombie peers: median %.1f mean %.2f (n=%d)\n", cz.Median(), cz.Mean(), cz.Len())
		fmt.Fprintf(&sb, "  zombie (stuck) paths:       median %.1f mean %.2f (n=%d)\n", cp.Median(), cp.Mean(), cp.Len())
		pc4, pc6 := 0.0, 0.0
		if total4 > 0 {
			pc4 = float64(changed4) / float64(total4)
		}
		if total6 > 0 {
			pc6 = float64(changed6) / float64(total6)
		}
		fmt.Fprintf(&sb, "  zombie paths differing from pre-withdrawal path: IPv4 %s, IPv6 %s\n",
			analysis.Pct(pc4), analysis.Pct(pc6))
		fmt.Fprintf(&sb, "  (paper: zombie paths longer; changed IPv4 96.1%%/95.54%%, IPv6 90.03%%/79.61%%)\n\n")
		metrics[key+".zombieMeanLen"] = cp.Mean()
		metrics[key+".normalMeanLen"] = cn.Mean()
		metrics[key+".changed4"] = pc4
		metrics[key+".changed6"] = pc6
	}
	return &Result{ID: "Fig6", Text: sb.String(), Metrics: metrics}, nil
}

func runFig7(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	sb.WriteString("Fig 7: CDF of the number of concurrent zombie outbreaks\n\n")
	periods, err := replicationData(cfg)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	for _, includeDup := range []bool{true, false} {
		counts4, counts6 := []int{}, []int{}
		allAtOnce4, tot4 := 0, 0
		for _, det := range periods {
			obs := det.report.Filter(zombie.FilterOptions{IncludeDuplicates: includeDup, ExcludePeerAS: noisyReplicationAS})
			var obs4, obs6 []zombie.Outbreak
			for _, ob := range obs {
				if ob.Prefix.Addr().Is4() {
					obs4 = append(obs4, ob)
				} else {
					obs6 = append(obs6, ob)
				}
			}
			c4 := zombie.ConcurrentCounts(obs4)
			counts4 = append(counts4, c4...)
			counts6 = append(counts6, zombie.ConcurrentCounts(obs6)...)
			// Outbreaks hitting every IPv4 beacon at once.
			for _, c := range c4 {
				tot4 += c
				if c == 13 {
					allAtOnce4 += c
				}
			}
		}
		c4, c6 := analysis.NewCDFInts(counts4), analysis.NewCDFInts(counts6)
		single4, single6 := c4.At(1), c6.At(1)
		variant, key := "with double-counting", "dc"
		if !includeDup {
			variant, key = "without double-counting", "nodc"
		}
		fmt.Fprintf(&sb, "-- %s --\n", variant)
		fmt.Fprintf(&sb, "  IPv4: single-outbreak instants %s, median concurrency %.0f, max %.0f\n",
			analysis.Pct(single4), c4.Median(), c4.Max())
		fmt.Fprintf(&sb, "  IPv6: single-outbreak instants %s, median concurrency %.0f, max %.0f\n",
			analysis.Pct(single6), c6.Median(), c6.Max())
		if tot4 > 0 {
			fmt.Fprintf(&sb, "  IPv4 outbreaks hitting all 13 beacons at once: %s (paper: 26.96%% with dc)\n",
				analysis.Pct(float64(allAtOnce4)/float64(tot4)))
		}
		sb.WriteString("\n")
		metrics[key+".single4"] = single4
		metrics[key+".single6"] = single6
		metrics[key+".max4"] = c4.Max()
	}
	sb.WriteString("(paper: 22.35%/34.04% of v4/v6 outbreaks occur singly with dc; 26.38%/37.97% deduped)\n")
	return &Result{ID: "Fig7", Text: sb.String(), Metrics: metrics}, nil
}
