package topology

import (
	"fmt"
	"math"
	"math/rand/v2"

	"zombiescope/internal/bgp"
)

// GenerateConfig parameterizes the deterministic Internet-like topology
// generator. Counts are numbers of ASes per tier; probabilities control
// lateral peering density.
type GenerateConfig struct {
	Seed uint64

	Tier1Count int // full p2p clique at the top
	Tier2Count int // regional transit providers
	Tier3Count int // smaller transit / access networks
	StubCount  int // edge networks, no customers

	// Tier2PeerProb is the probability that any two Tier-2 ASes peer.
	Tier2PeerProb float64
	// Tier3PeerProb is the probability that any two Tier-3 ASes peer.
	Tier3PeerProb float64

	// FirstASN is the ASN assigned to the first generated AS; subsequent
	// ASes count up from it. Generated ranges must not collide with
	// explicitly named ASes callers add afterwards.
	FirstASN bgp.ASN
}

// DefaultGenerateConfig returns a medium-sized topology suitable for the
// experiment scenarios: a few hundred ASes with realistic tiering.
func DefaultGenerateConfig(seed uint64) GenerateConfig {
	return GenerateConfig{
		Seed:          seed,
		Tier1Count:    8,
		Tier2Count:    40,
		Tier3Count:    120,
		StubCount:     240,
		Tier2PeerProb: 0.15,
		Tier3PeerProb: 0.02,
		FirstASN:      64500,
	}
}

// InternetScaleConfig returns an ~80k-AS topology approximating the scale
// of the measured Internet (the paper's vantage covers ~70k ASes): a
// 20-AS Tier-1 clique, 2000 regional transits, 18000 access networks and
// 60000 stubs. Peering probabilities are scaled down so lateral peering
// density stays realistic (~10^4 peerings per tier) instead of growing
// quadratically with the tier size. Generation uses the sampling fast
// paths throughout, so building the graph takes seconds, not hours.
func InternetScaleConfig(seed uint64) GenerateConfig {
	return GenerateConfig{
		Seed:          seed,
		Tier1Count:    20,
		Tier2Count:    2000,
		Tier3Count:    18000,
		StubCount:     60000,
		Tier2PeerProb: 0.004,
		Tier3PeerProb: 0.00008,
		FirstASN:      100000,
	}
}

// Thresholds below which the generator keeps the original dense
// algorithms. Everything the default config produces sits under both, so
// historical topologies regenerate byte-identically; only large configs
// take the sampling fast paths (which consume the RNG differently).
const (
	densePairLimit = 1 << 20 // max i<j pairs for the O(n²) Bernoulli loop
	densePoolLimit = 256     // max pool size for rand.Perm transit picks
)

// bernoulliPairs visits each unordered pair (i, j), i < j, of n items
// with probability p. Below densePairLimit pairs it runs the literal
// O(n²) coin-flip loop (the historical RNG stream); above, it samples the
// selected pairs directly with geometric skips, visiting O(p·n²) pairs.
func bernoulliPairs(rng *rand.Rand, n int, p float64, visit func(i, j int) error) error {
	total := n * (n - 1) / 2
	if total <= densePairLimit {
		// The dense loop consumes one draw per pair even when p is 0 —
		// exactly as the original code did, keeping the RNG stream (and
		// therefore every downstream pick) byte-identical for historical
		// configs.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					if err := visit(i, j); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if p <= 0 {
		return nil
	}
	// rowStart(i) is the linear index of pair (i, i+1) in row-major
	// enumeration of i < j pairs.
	rowStart := func(i int) int { return i * (2*n - i - 1) / 2 }
	logq := math.Log1p(-p) // log(1-p) < 0; p >= 1 handled by the dense loop
	if p >= 1 {
		logq = math.Inf(-1)
	}
	k := -1
	for {
		skip := 0
		if !math.IsInf(logq, -1) {
			skip = int(math.Log(1-rng.Float64()) / logq)
		}
		k += skip + 1
		if k >= total {
			return nil
		}
		// Invert rowStart around a float seed, then correct exactly.
		i := int((float64(2*n-1) - math.Sqrt(float64(2*n-1)*float64(2*n-1)-8*float64(k))) / 2)
		if i < 0 {
			i = 0
		}
		for i+1 < n-1 && rowStart(i+1) <= k {
			i++
		}
		for i > 0 && rowStart(i) > k {
			i--
		}
		j := i + 1 + (k - rowStart(i))
		if err := visit(i, j); err != nil {
			return err
		}
	}
}

// Generate builds a tiered AS graph:
//
//   - Tier-1 ASes form a full peering clique and have no providers.
//   - Each Tier-2 AS buys transit from 2–3 Tier-1s and peers laterally.
//   - Each Tier-3 AS buys transit from 1–3 Tier-2s.
//   - Each stub AS buys transit from 1–2 Tier-3s (occasionally a Tier-2).
//
// The generator is fully deterministic for a given config.
func Generate(cfg GenerateConfig) (*Graph, error) {
	if cfg.Tier1Count < 1 {
		return nil, fmt.Errorf("topology: need at least one Tier-1, got %d", cfg.Tier1Count)
	}
	if cfg.FirstASN == 0 {
		cfg.FirstASN = 64500
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	g := New()
	next := cfg.FirstASN
	alloc := func(n int, tier int) []bgp.ASN {
		out := make([]bgp.ASN, 0, n)
		for i := 0; i < n; i++ {
			asn := next
			next++
			g.AddAS(asn, tier)
			out = append(out, asn)
		}
		return out
	}
	t1 := alloc(cfg.Tier1Count, 1)
	t2 := alloc(cfg.Tier2Count, 2)
	t3 := alloc(cfg.Tier3Count, 3)
	stubs := alloc(cfg.StubCount, 4)

	// Tier-1 clique.
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			if err := g.AddP2P(t1[i], t1[j]); err != nil {
				return nil, err
			}
		}
	}
	pickDistinct := func(pool []bgp.ASN, n int) []bgp.ASN {
		if n > len(pool) {
			n = len(pool)
		}
		// Small pools keep the historical Perm draw (byte-identical
		// topologies); large pools reject-sample the few indices needed
		// instead of permuting the whole pool per AS.
		if len(pool) <= densePoolLimit {
			idx := rng.Perm(len(pool))[:n]
			out := make([]bgp.ASN, n)
			for i, k := range idx {
				out[i] = pool[k]
			}
			return out
		}
		out := make([]bgp.ASN, 0, n)
		seen := make(map[int]bool, n)
		for len(out) < n {
			k := rng.IntN(len(pool))
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, pool[k])
		}
		return out
	}
	// Tier-2 transit + lateral peering.
	for _, asn := range t2 {
		for _, p := range pickDistinct(t1, 2+rng.IntN(2)) {
			if err := g.AddC2P(asn, p); err != nil {
				return nil, err
			}
		}
	}
	if err := bernoulliPairs(rng, len(t2), cfg.Tier2PeerProb, func(i, j int) error {
		return g.AddP2P(t2[i], t2[j])
	}); err != nil {
		return nil, err
	}
	// Tier-3 transit + sparse lateral peering.
	if len(t2) > 0 {
		for _, asn := range t3 {
			for _, p := range pickDistinct(t2, 1+rng.IntN(3)) {
				if err := g.AddC2P(asn, p); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := bernoulliPairs(rng, len(t3), cfg.Tier3PeerProb, func(i, j int) error {
		return g.AddP2P(t3[i], t3[j])
	}); err != nil {
		return nil, err
	}
	// Stubs.
	for _, asn := range stubs {
		pool := t3
		if len(pool) == 0 || rng.Float64() < 0.1 {
			pool = t2
		}
		if len(pool) == 0 {
			pool = t1
		}
		for _, p := range pickDistinct(pool, 1+rng.IntN(2)) {
			if err := g.AddC2P(asn, p); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// TierASNs returns the generated ASNs of the given tier, ascending.
func (g *Graph) TierASNs(tier int) []bgp.ASN {
	var out []bgp.ASN
	for _, asn := range g.ASNs() {
		if g.ases[asn].Tier == tier {
			out = append(out, asn)
		}
	}
	return out
}
