package topology

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"
)

// graphHash digests the complete adjacency structure (tiers and sorted
// link lists) of a generated graph so any change to it shows up. Each
// line still carries the name Generate once gave every AS, its tier's
// label and its rank in that tier ("tier2-7"), which the ascending ASNs
// determine, so the digests pinned before ASes lost their names hold.
func graphHash(g *Graph) uint64 {
	h := fnv.New64a()
	rank := make(map[int]int)
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		name := fmt.Sprintf("%s-%d", [...]string{"tier1", "tier2", "tier3", "stub"}[a.Tier-1], rank[a.Tier])
		rank[a.Tier]++
		fmt.Fprintf(h, "%d|%s|%d|%v|%v|%v\n", asn, name, a.Tier, a.Providers(), a.customers, a.peers)
	}
	return h.Sum64()
}

// TestGenerateHistoricalConfigsUnchanged pins the exact graphs the default
// config produced before the sampling fast paths existed. The default
// config sits below both fast-path thresholds, so it must keep taking the
// dense code paths and regenerate byte-identically forever — the
// experiment golden outputs depend on it.
func TestGenerateHistoricalConfigsUnchanged(t *testing.T) {
	want := map[uint64]uint64{
		1:  0xf9aa9102691a8ea,
		7:  0xda592812e820fbb5,
		42: 0x796d79950e264107,
	}
	for seed, wantHash := range want {
		g, err := Generate(DefaultGenerateConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := graphHash(g); got != wantHash {
			t.Errorf("seed %d: graph hash %#x, want %#x — the generator changed the topology of a historical config", seed, got, wantHash)
		}
	}
}

// TestBernoulliPairsSampledMatchesExpectation: above the dense limit the
// geometric-skip sampler must emit valid ascending pairs at roughly the
// requested density.
func TestBernoulliPairsSampledMatchesExpectation(t *testing.T) {
	const n = 2000 // 1,999,000 pairs: above densePairLimit
	total := n * (n - 1) / 2
	if total <= densePairLimit {
		t.Fatalf("test misconfigured: %d pairs not above dense limit", total)
	}
	const p = 0.004
	rng := rand.New(rand.NewPCG(9, 9))
	seen := make(map[[2]int]bool)
	lastI, lastJ := -1, 0
	err := bernoulliPairs(rng, n, p, func(i, j int) error {
		if i < 0 || j <= i || j >= n {
			t.Fatalf("invalid pair (%d, %d)", i, j)
		}
		if i < lastI || (i == lastI && j <= lastJ) {
			t.Fatalf("pairs not strictly ascending: (%d,%d) after (%d,%d)", i, j, lastI, lastJ)
		}
		lastI, lastJ = i, j
		if seen[[2]int{i, j}] {
			t.Fatalf("pair (%d, %d) emitted twice", i, j)
		}
		seen[[2]int{i, j}] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(total) * p
	if got := float64(len(seen)); got < mean*0.8 || got > mean*1.2 {
		t.Errorf("sampled %v pairs, expected about %v", got, mean)
	}
}

// TestGenerateInternetScale builds the ~80k-AS graph and sanity-checks
// its shape. Generation must be fast (sampling paths) and valid.
func TestGenerateInternetScale(t *testing.T) {
	cfg := InternetScaleConfig(3)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantASes := cfg.Tier1Count + cfg.Tier2Count + cfg.Tier3Count + cfg.StubCount
	if g.Len() != wantASes {
		t.Fatalf("Len = %d, want %d", g.Len(), wantASes)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same seed regenerates the same graph even on the sampling paths.
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if graphHash(g) != graphHash(g2) {
		t.Error("same-seed internet-scale graphs differ")
	}
	// Lateral peering density is in the configured ballpark rather than
	// quadratic: tier-2 expects ~8k peerings, tier-3 ~13k.
	countPeers := func(tier int) int {
		n := 0
		for _, asn := range g.TierASNs(tier) {
			n += len(g.AS(asn).peers)
		}
		return n / 2
	}
	t2Pairs := cfg.Tier2Count * (cfg.Tier2Count - 1) / 2
	t2Mean := float64(t2Pairs) * cfg.Tier2PeerProb
	if got := float64(countPeers(2)); got < t2Mean*0.7 || got > t2Mean*1.3 {
		t.Errorf("tier-2 peerings %v, expected about %v", got, t2Mean)
	}
}
