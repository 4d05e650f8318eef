// Package topology models an AS-level Internet graph with the standard
// business relationships (customer-to-provider and peer-to-peer) used by
// the Gao–Rexford routing policy model, and provides a deterministic
// generator for Internet-like tiered topologies. The zombie experiments
// use this graph as the substrate the BGP simulator routes over, standing
// in for the real Internet topology the paper measures.
package topology

import (
	"fmt"
	"slices"
	"sort"

	"zombiescope/internal/bgp"
)

// Relationship describes what a neighbor is to a given AS.
type Relationship int8

// Relationship values, from the perspective of the AS looking at the
// neighbor.
const (
	RelNone     Relationship = iota // not adjacent
	RelCustomer                     // neighbor pays us for transit
	RelPeer                         // settlement-free peer
	RelProvider                     // we pay the neighbor for transit
)

func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// AS is one autonomous system in the graph.
// Its number is the key it is filed under in the Graph.
type AS struct {
	Tier int // 1 = Tier-1 clique; larger numbers are further down

	providers []bgp.ASN
	customers []bgp.ASN
	peers     []bgp.ASN
}

// Providers returns the AS's transit providers (sorted, read-only).
func (a *AS) Providers() []bgp.ASN { return a.providers }

// Neighbors returns every adjacent ASN, sorted.
func (a *AS) Neighbors() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(a.providers)+len(a.customers)+len(a.peers))
	out = append(out, a.providers...)
	out = append(out, a.customers...)
	out = append(out, a.peers...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Graph is an AS-level topology. The zero value is an empty graph ready
// for use.
type Graph struct {
	ases map[bgp.ASN]*AS
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{ases: make(map[bgp.ASN]*AS)}
}

// AddAS inserts an AS. Adding an existing ASN updates its tier and keeps
// its links.
func (g *Graph) AddAS(asn bgp.ASN, tier int) *AS {
	if g.ases == nil {
		g.ases = make(map[bgp.ASN]*AS)
	}
	a, ok := g.ases[asn]
	if !ok {
		a = &AS{}
		g.ases[asn] = a
	}
	a.Tier = tier
	return a
}

// AS returns the AS with the given number, or nil.
func (g *Graph) AS(asn bgp.ASN) *AS { return g.ases[asn] }

// Contains reports whether the graph has the ASN.
func (g *Graph) Contains(asn bgp.ASN) bool { _, ok := g.ases[asn]; return ok }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.ases) }

// ASNs returns all AS numbers in ascending order.
func (g *Graph) ASNs() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(g.ases))
	for asn := range g.ases {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func insertSorted(s []bgp.ASN, v bgp.ASN) []bgp.ASN {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// AddC2P adds a customer-to-provider link: customer buys transit from
// provider. Both ASes must already exist.
func (g *Graph) AddC2P(customer, provider bgp.ASN) error {
	if customer == provider {
		return fmt.Errorf("topology: self link on %s", customer)
	}
	c, p := g.ases[customer], g.ases[provider]
	if c == nil || p == nil {
		return fmt.Errorf("topology: link %s->%s references unknown AS", customer, provider)
	}
	if g.Relationship(customer, provider) != RelNone {
		return fmt.Errorf("topology: %s and %s already linked", customer, provider)
	}
	c.providers = insertSorted(c.providers, provider)
	p.customers = insertSorted(p.customers, customer)
	return nil
}

// AddP2P adds a settlement-free peering link.
func (g *Graph) AddP2P(a, b bgp.ASN) error {
	if a == b {
		return fmt.Errorf("topology: self link on %s", a)
	}
	x, y := g.ases[a], g.ases[b]
	if x == nil || y == nil {
		return fmt.Errorf("topology: link %s--%s references unknown AS", a, b)
	}
	if g.Relationship(a, b) != RelNone {
		return fmt.Errorf("topology: %s and %s already linked", a, b)
	}
	x.peers = insertSorted(x.peers, b)
	y.peers = insertSorted(y.peers, a)
	return nil
}

// Relationship reports what `neighbor` is to `of`: RelCustomer means the
// neighbor is of's customer.
func (g *Graph) Relationship(of, neighbor bgp.ASN) Relationship {
	a := g.ases[of]
	if a == nil {
		return RelNone
	}
	if _, ok := slices.BinarySearch(a.customers, neighbor); ok {
		return RelCustomer
	}
	if _, ok := slices.BinarySearch(a.peers, neighbor); ok {
		return RelPeer
	}
	if _, ok := slices.BinarySearch(a.providers, neighbor); ok {
		return RelProvider
	}
	return RelNone
}

// CustomerCone returns the set of ASes in asn's customer cone, i.e. the
// ASes reachable by repeatedly following provider-to-customer links,
// including asn itself.
func (g *Graph) CustomerCone(asn bgp.ASN) map[bgp.ASN]bool {
	cone := make(map[bgp.ASN]bool)
	if g.ases[asn] == nil {
		return cone
	}
	stack := []bgp.ASN{asn}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cone[cur] {
			continue
		}
		cone[cur] = true
		for _, c := range g.ases[cur].customers {
			if !cone[c] {
				stack = append(stack, c)
			}
		}
	}
	return cone
}

// CustomerConeSize returns len(CustomerCone(asn)) - 1, i.e. the number of
// distinct ASes below asn, the figure the paper quotes (e.g. ~6000 for
// AS4637).
func (g *Graph) CustomerConeSize(asn bgp.ASN) int {
	n := len(g.CustomerCone(asn))
	if n == 0 {
		return 0
	}
	return n - 1
}

// Validate checks structural invariants: every link endpoint exists, links
// are symmetric, and no AS is simultaneously customer and provider of the
// same neighbor.
func (g *Graph) Validate() error {
	for asn, a := range g.ases {
		for _, p := range a.providers {
			pa := g.ases[p]
			if pa == nil {
				return fmt.Errorf("topology: %s lists unknown provider %s", asn, p)
			}
			if _, ok := slices.BinarySearch(pa.customers, asn); !ok {
				return fmt.Errorf("topology: %s->%s provider link not mirrored", asn, p)
			}
			if _, ok := slices.BinarySearch(a.customers, p); ok {
				return fmt.Errorf("topology: %s and %s are mutual customer/provider", asn, p)
			}
		}
		for _, c := range a.customers {
			ca := g.ases[c]
			if ca == nil {
				return fmt.Errorf("topology: %s lists unknown customer %s", asn, c)
			}
			if _, ok := slices.BinarySearch(ca.providers, asn); !ok {
				return fmt.Errorf("topology: %s->%s customer link not mirrored", asn, c)
			}
		}
		for _, p := range a.peers {
			pa := g.ases[p]
			if pa == nil {
				return fmt.Errorf("topology: %s lists unknown peer %s", asn, p)
			}
			if _, ok := slices.BinarySearch(pa.peers, asn); !ok {
				return fmt.Errorf("topology: %s--%s peer link not mirrored", asn, p)
			}
		}
	}
	return nil
}
