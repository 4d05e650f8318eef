package topology

import (
	"testing"

	"zombiescope/internal/bgp"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	// A tiny palm-tree shaped graph:
	//        1 --- 2      (tier-1 peers)
	//       / \     \
	//      10  11    12   (tier-2 customers)
	//      |
	//     100             (stub)
	for _, a := range []struct {
		asn  bgp.ASN
		tier int
	}{{1, 1}, {2, 1}, {10, 2}, {11, 2}, {12, 2}, {100, 3}} {
		g.AddAS(a.asn, a.tier)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddP2P(1, 2))
	must(g.AddC2P(10, 1))
	must(g.AddC2P(11, 1))
	must(g.AddC2P(12, 2))
	must(g.AddC2P(100, 10))
	return g
}

func TestRelationships(t *testing.T) {
	g := smallGraph(t)
	cases := []struct {
		of, nb bgp.ASN
		want   Relationship
	}{
		{1, 2, RelPeer},
		{2, 1, RelPeer},
		{1, 10, RelCustomer},
		{10, 1, RelProvider},
		{10, 100, RelCustomer},
		{100, 10, RelProvider},
		{10, 11, RelNone},
		{999, 1, RelNone},
		{1, 999, RelNone},
	}
	for _, c := range cases {
		if got := g.Relationship(c.of, c.nb); got != c.want {
			t.Errorf("Relationship(%s, %s) = %v, want %v", c.of, c.nb, got, c.want)
		}
	}
}

func TestCustomerCone(t *testing.T) {
	g := smallGraph(t)
	cone := g.CustomerCone(1)
	for _, want := range []bgp.ASN{1, 10, 11, 100} {
		if !cone[want] {
			t.Errorf("cone of AS1 missing %s", want)
		}
	}
	if cone[2] || cone[12] {
		t.Error("cone of AS1 leaked across the peering link")
	}
	if got := g.CustomerConeSize(1); got != 3 {
		t.Errorf("CustomerConeSize(1) = %d, want 3", got)
	}
	if got := g.CustomerConeSize(100); got != 0 {
		t.Errorf("CustomerConeSize(stub) = %d, want 0", got)
	}
	if got := g.CustomerConeSize(999); got != 0 {
		t.Errorf("CustomerConeSize(unknown) = %d, want 0", got)
	}
}

func TestLinkErrors(t *testing.T) {
	g := smallGraph(t)
	if err := g.AddC2P(10, 10); err == nil {
		t.Error("self link accepted")
	}
	if err := g.AddC2P(10, 999); err == nil {
		t.Error("link to unknown AS accepted")
	}
	if err := g.AddC2P(10, 1); err == nil {
		t.Error("duplicate c2p link accepted")
	}
	if err := g.AddP2P(10, 1); err == nil {
		t.Error("p2p over existing c2p accepted")
	}
	if err := g.AddP2P(1, 2); err == nil {
		t.Error("duplicate p2p link accepted")
	}
}

func TestValidate(t *testing.T) {
	g := smallGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	// Break symmetry by hand.
	g.AS(10).providers = append(g.AS(10).providers, 2)
	if err := g.Validate(); err == nil {
		t.Error("asymmetric link not detected")
	}
}

func TestNeighbors(t *testing.T) {
	g := smallGraph(t)
	nb := g.AS(1).Neighbors()
	want := []bgp.ASN{2, 10, 11}
	if len(nb) != len(want) {
		t.Fatalf("neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Errorf("neighbors = %v, want %v", nb, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenerateConfig(42)
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Len() != g2.Len() {
		t.Fatalf("sizes differ: %d vs %d", g1.Len(), g2.Len())
	}
	for _, asn := range g1.ASNs() {
		a1, a2 := g1.AS(asn), g2.AS(asn)
		if a1.Tier != a2.Tier {
			t.Fatalf("%s tier differs", asn)
		}
		n1, n2 := a1.Neighbors(), a2.Neighbors()
		if len(n1) != len(n2) {
			t.Fatalf("%s neighbor count differs: %d vs %d", asn, len(n1), len(n2))
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("%s neighbors differ", asn)
			}
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := DefaultGenerateConfig(7)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	wantTotal := cfg.Tier1Count + cfg.Tier2Count + cfg.Tier3Count + cfg.StubCount
	if g.Len() != wantTotal {
		t.Errorf("Len() = %d, want %d", g.Len(), wantTotal)
	}
	// Tier-1s have no providers and form a clique.
	t1 := g.TierASNs(1)
	if len(t1) != cfg.Tier1Count {
		t.Fatalf("tier1 count %d", len(t1))
	}
	for _, asn := range t1 {
		a := g.AS(asn)
		if len(a.Providers()) != 0 {
			t.Errorf("tier1 %s has providers", asn)
		}
		if len(a.peers) != cfg.Tier1Count-1 {
			t.Errorf("tier1 %s peers with %d, want %d", asn, len(a.peers), cfg.Tier1Count-1)
		}
	}
	// Every non-tier-1 AS has at least one provider (the graph is
	// connected upward so routes can reach everyone).
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		if a.Tier > 1 && len(a.Providers()) == 0 {
			t.Errorf("%s (tier %d) has no provider", asn, a.Tier)
		}
	}
	// Stubs have no customers.
	for _, asn := range g.TierASNs(4) {
		if len(g.AS(asn).customers) != 0 {
			t.Errorf("stub %s has customers", asn)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	g1, err := Generate(DefaultGenerateConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(DefaultGenerateConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, asn := range g1.ASNs() {
		n1, n2 := g1.AS(asn).Neighbors(), g2.AS(asn).Neighbors()
		if len(n1) != len(n2) {
			same = false
			break
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateRejectsNoTier1(t *testing.T) {
	if _, err := Generate(GenerateConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestGenerateQuickProperty: any reasonable config yields a valid graph
// whose tier-1 customer cones jointly cover every non-tier-1 AS.
func TestGenerateQuickProperty(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := GenerateConfig{
			Seed:       seed,
			Tier1Count: 2 + int(seed%4),
			Tier2Count: 3 + int(seed%6),
			Tier3Count: 5 + int(seed%9),
			StubCount:  int(seed % 7),
			FirstASN:   64500,
		}
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		covered := make(map[bgp.ASN]bool)
		for _, t1 := range g.TierASNs(1) {
			for asn := range g.CustomerCone(t1) {
				covered[asn] = true
			}
		}
		for _, asn := range g.ASNs() {
			if !covered[asn] {
				t.Fatalf("seed %d: %s not in any tier-1 cone", seed, asn)
			}
		}
		// Customer cones are monotone: a provider's cone contains each
		// customer's cone.
		for _, asn := range g.ASNs() {
			cone := g.CustomerCone(asn)
			for _, c := range g.AS(asn).customers {
				for sub := range g.CustomerCone(c) {
					if !cone[sub] {
						t.Fatalf("seed %d: %s in cone(%s) but not in cone(%s)", seed, sub, c, asn)
					}
				}
			}
		}
	}
}
