package zombie

import (
	"math"
	"net/netip"
	"slices"
	"sort"

	"zombiescope/internal/bgp"
)

// PeerScore is a peer's zombie likelihood, the basis of the noisy-peer
// filter. Likelihood = zombie routes of the peer / beacon announcements of
// the family (the paper's Table 4/5 metric).
type PeerScore struct {
	Peer PeerID
	// Per-family likelihoods and raw counts.
	Prob4, Prob6     float64
	Routes4, Routes6 int
}

// ScorePeers computes per-peer zombie likelihoods from a report.
// includeDuplicates selects the "with double-counting" variant.
func ScorePeers(rep *Report, includeDuplicates bool) []PeerScore {
	ann4, ann6 := 0, 0
	for _, iv := range rep.Intervals {
		if iv.Prefix.Addr().Is4() {
			ann4++
		} else {
			ann6++
		}
	}
	counts := make(map[PeerID]*PeerScore)
	for _, p := range rep.Peers {
		counts[p] = &PeerScore{Peer: p}
	}
	for _, ob := range rep.Outbreaks {
		for _, r := range ob.Routes {
			if r.Duplicate && !includeDuplicates {
				continue
			}
			sc := counts[r.Peer]
			if sc == nil {
				sc = &PeerScore{Peer: r.Peer}
				counts[r.Peer] = sc
			}
			if r.Prefix.Addr().Is4() {
				sc.Routes4++
			} else {
				sc.Routes6++
			}
		}
	}
	out := make([]PeerScore, 0, len(counts))
	for _, sc := range counts {
		if ann4 > 0 {
			sc.Prob4 = float64(sc.Routes4) / float64(ann4)
		}
		if ann6 > 0 {
			sc.Prob6 = float64(sc.Routes6) / float64(ann6)
		}
		out = append(out, *sc)
	}
	slices.SortFunc(out, func(a, b PeerScore) int { return comparePeers(a.Peer, b.Peer) })
	return out
}

// NoisyConfig tunes outlier flagging.
type NoisyConfig struct {
	// MinProb is an absolute floor: a peer below it is never flagged,
	// however skewed the distribution. Default 0.05 (the paper's outlier
	// had ~0.43 against a ~0.016 average).
	MinProb float64
}

// noisySigmas is how many (normalized) median absolute deviations above
// the median a peer's likelihood must sit to be an outlier.
const noisySigmas = 3

func (c NoisyConfig) minProb() float64 {
	if c.MinProb <= 0 {
		return 0.05
	}
	return c.MinProb
}

// FlagNoisyPeers returns peers whose likelihood in either family is an
// outlier. Outliers are judged against a robust baseline — the median plus
// noisySigmas times the (normalized) median absolute deviation — so a single
// wildly noisy peer cannot inflate the cut the way it inflates a mean/σ
// cut; the peer must also clear the absolute MinProb floor. This mirrors
// the paper's reasoning: AS16347's ~42.8% against the remaining peers'
// ~1.58% average.
func FlagNoisyPeers(scores []PeerScore, cfg NoisyConfig) []PeerID {
	if len(scores) == 0 {
		return nil
	}
	flag := make(map[PeerID]bool)
	for _, family := range []bool{true, false} {
		vals := make([]float64, 0, len(scores))
		for _, s := range scores {
			if family {
				vals = append(vals, s.Prob4)
			} else {
				vals = append(vals, s.Prob6)
			}
		}
		med := median(vals)
		mad := medianAbsDev(vals, med)
		// 1.4826 scales the MAD to a σ-equivalent for normal data.
		cut := med + noisySigmas*1.4826*mad
		if cut < cfg.minProb() {
			cut = cfg.minProb()
		}
		for i, s := range scores {
			if vals[i] > cut {
				flag[s.Peer] = true
			}
		}
	}
	var out []PeerID
	for _, s := range scores {
		if flag[s.Peer] {
			out = append(out, s.Peer)
		}
	}
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianAbsDev(vals []float64, med float64) float64 {
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = math.Abs(v - med)
	}
	return median(devs)
}

// ExcludeSets converts flagged peers into filter sets (by AS and by
// address).
func ExcludeSets(peers []PeerID) (byAS map[bgp.ASN]bool, byAddr map[netip.Addr]bool) {
	byAS = make(map[bgp.ASN]bool)
	byAddr = make(map[netip.Addr]bool)
	for _, p := range peers {
		byAS[p.AS] = true
		byAddr[p.Addr] = true
	}
	return byAS, byAddr
}
