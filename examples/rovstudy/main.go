// Rovstudy: demonstrate the paper's RPKI observation — after the beacon
// ROA is removed, zombie routes become RPKI-invalid, yet only ASes with a
// standard-compliant ROV implementation evict them. ASes without ROV, or
// with the flawed "validate at import only" implementation, keep serving
// the invalid zombie.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"zombiescope"
	"zombiescope/internal/bgp"
	"zombiescope/internal/rpki"
)

func main() {
	const (
		tier1      zombiescope.ASN = 64500
		transitROV zombiescope.ASN = 64501 // enforces ROV properly
		transitBad zombiescope.ASN = 64502 // flawed: never re-validates
		transitOff zombiescope.ASN = 64503 // no ROV at all
		origin     zombiescope.ASN = 65010
	)
	g := zombiescope.NewTopology()
	g.AddAS(tier1, 1)
	g.AddAS(transitROV, 2)
	g.AddAS(transitBad, 2)
	g.AddAS(transitOff, 2)
	g.AddAS(origin, 3)
	for _, l := range [][2]zombiescope.ASN{
		{transitROV, tier1}, {transitBad, tier1}, {transitOff, tier1}, {origin, tier1},
	} {
		if err := g.AddC2P(l[0], l[1]); err != nil {
			log.Fatal(err)
		}
	}

	// RPKI: the /32 covering block is ROA'd at /32; the beacon /48s have
	// their own maxlen-48 ROA that will be removed mid-experiment —
	// exactly the paper's setup on 2024-06-22 19:49 UTC.
	base := netip.MustParsePrefix("2a0d:3dc1::/32")
	reg := &zombiescope.ROARegistry{}
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	roa32 := zombiescope.ROA{Prefix: base, MaxLength: 32, Origin: origin}
	roa48 := zombiescope.ROA{Prefix: base, MaxLength: 48, Origin: origin}
	reg.Add(t0.Add(-24*time.Hour), roa32)
	reg.Add(t0.Add(-24*time.Hour), roa48)

	sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: 3, ROA: reg})
	sim.SetROVPolicy(transitROV, rpki.ROVEnforce)
	sim.SetROVPolicy(transitBad, rpki.ROVNoEvict)

	// Announce a beacon, then wedge every transit's feed so all three
	// keep the route after the withdrawal: three identical zombies.
	prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	wedgeAt := t0.Add(10 * time.Minute)
	for _, transit := range []zombiescope.ASN{transitROV, transitBad, transitOff} {
		sim.Faults().WedgeLink(tier1, transit, bgp.AFIIPv6, wedgeAt, t0.Add(240*time.Hour), nil)
	}
	agg := &zombiescope.Aggregator{ASN: origin, Addr: zombiescope.AggregatorClock(t0)}
	if err := sim.ScheduleAnnounce(t0, origin, prefix, agg); err != nil {
		log.Fatal(err)
	}
	if err := sim.ScheduleWithdraw(t0.Add(15*time.Minute), origin, prefix); err != nil {
		log.Fatal(err)
	}
	sim.Run(t0.Add(2 * time.Hour))

	show := func(stage string) {
		fmt.Printf("%s:\n", stage)
		for _, tc := range []struct {
			asn  zombiescope.ASN
			name string
		}{{transitROV, "ROV enforcing "}, {transitBad, "ROV no-evict  "}, {transitOff, "no ROV        "}} {
			state := "clean"
			if sim.HasRoute(tc.asn, prefix) {
				state = "ZOMBIE"
			}
			fmt.Printf("  %s (%s): %s\n", tc.name, tc.asn, state)
		}
	}
	show("two hours after the withdrawal (ROA still present, route RPKI-valid)")

	// Remove the beacon ROA: the stuck /48 is now covered only by the
	// maxlen-32 ROA, i.e. RPKI-INVALID.
	removeAt := t0.Add(3 * time.Hour)
	reg.Remove(removeAt, roa48)
	sim.ScheduleROARevalidation(removeAt)
	sim.RunAll()
	v := reg.Validate(removeAt.Add(time.Hour), prefix, origin)
	fmt.Printf("\nROA removed at %s; the stuck route is now RPKI-%s\n\n",
		removeAt.Format(time.TimeOnly), v)
	show("after the ROA removal and the expected revalidation delay")

	fmt.Println("\nOnly the standard-compliant ROV implementation evicted the invalid")
	fmt.Println("zombie. The paper observes exactly this: stuck routes survived the ROA")
	fmt.Println("removal at ASes that do not perform ROV or whose implementation never")
	fmt.Println("re-validates installed routes (§5, Fig. 3).")
}
