package experiments

import (
	"fmt"
	"strings"
	"time"

	"zombiescope/internal/zombie"
)

func init() {
	register(Experiment{
		ID:    "CaseResurrectionSubpath",
		Title: "§5.1: late re-announcements share the Telstra subpath",
		Paper: "Routes reappearing ~170 minutes after withdrawal all share the subpath '4637 1299 25091 8298 210312'; AS4637 (Telstra, ~6000-AS customer cone) is the likely root cause.",
		Run:   runCaseResurrectionSubpath,
	})
	register(Experiment{
		ID:    "CaseImpactful",
		Title: "§5.2: impactful zombie outbreak (Core-Backbone)",
		Paper: "2a0d:3dc1:2233::/48 stuck in 24 peer routers / 21 peer ASes 3h after withdrawal, all sharing '33891 25091 8298 210312'; AS33891 (~2100-AS cone) likely responsible; gone after 4 days.",
		Run:   runCaseImpactful,
	})
	register(Experiment{
		ID:    "CaseLongLived",
		Title: "§5.2: extremely long-lived zombie (HGC)",
		Paper: "2a0d:3dc1:163::/48 stuck at AS9304/AS17639 ~4.5 months and AS142271 ~4 months, sharing '9304 6939 43100 25091 8298 210312'; AS9304 (~750-AS cone) likely responsible.",
		Run:   runCaseLongLived,
	})
}

func runCaseResurrectionSubpath(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	// Detect at 180 minutes and keep routes whose last update arrived
	// more than 150 minutes after the withdrawal — the late
	// re-announcements behind the Fig. 2 bump.
	rep := (&zombie.Detector{Threshold: 180 * time.Minute}).DetectFromHistory(d.history, d.Intervals)
	var late []zombie.Route
	for _, ob := range rep.Outbreaks {
		for _, r := range ob.Routes {
			if r.LastUpdate.Sub(ob.Interval.WithdrawAt) > 150*time.Minute {
				late = append(late, r)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("§5.1: resurrected routes appearing ~170 min after withdrawal\n\n")
	metrics := map[string]float64{"lateRoutes": float64(len(late))}
	if len(late) == 0 {
		sb.WriteString("no late re-announcements detected\n")
		return &Result{Text: sb.String(), Metrics: metrics}, nil
	}
	ob := zombie.Outbreak{Routes: late}
	if rc, ok := zombie.InferRootCause(ob.Paths()); ok {
		fmt.Fprintf(&sb, "common subpath: %s (paper: 4637 1299 25091 8298 210312)\n", rc.SubpathString())
		fmt.Fprintf(&sb, "palm-tree root cause candidate: %s (customer cone: %d ASes; paper: AS4637, ~6000)\n",
			rc.Candidate, d.Graph.CustomerConeSize(rc.Candidate))
		fmt.Fprintf(&sb, "late routes: %d across %d peer ASes\n", len(late), rc.PeerASes)
		metrics["candidate"] = float64(rc.Candidate)
		metrics["coneSize"] = float64(d.Graph.CustomerConeSize(rc.Candidate))
	}
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}

func runCaseImpactful(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	c, ok := d.Cases["impactful"]
	if !ok {
		return nil, fmt.Errorf("experiments: impactful case missing")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "§5.2 impactful zombie: %s (paper's instance: 2a0d:3dc1:2233::/48)\n\n", c.Prefix)
	metrics := map[string]float64{}
	// The case's first outbreak 3h after a withdrawal.
	var ob zombie.Outbreak
	for _, o := range (&zombie.Detector{Threshold: 3 * time.Hour}).DetectFromHistory(d.history, d.Intervals).Outbreaks {
		if o.Prefix == c.Prefix {
			ob = o
			break
		}
	}
	if len(ob.Routes) == 0 {
		sb.WriteString("no outbreak detected\n")
		return &Result{Text: sb.String(), Metrics: metrics}, nil
	}
	peerASes := ob.PeerASes()
	fmt.Fprintf(&sb, "stuck 3h after withdrawal in %d peer routers across %d peer ASes (paper: 24 routers / 21 ASes)\n",
		len(ob.Routes), len(peerASes))
	metrics["routers"] = float64(len(ob.Routes))
	metrics["peerASes"] = float64(len(peerASes))
	if rc, ok := zombie.InferRootCause(ob.Paths()); ok {
		fmt.Fprintf(&sb, "common subpath: %s (paper: 33891 25091 8298 210312)\n", rc.SubpathString())
		fmt.Fprintf(&sb, "root cause candidate: %s, customer cone %d ASes (paper: AS33891, ~2100)\n",
			rc.Candidate, d.Graph.CustomerConeSize(rc.Candidate))
		metrics["candidate"] = float64(rc.Candidate)
		metrics["coneSize"] = float64(d.Graph.CustomerConeSize(rc.Candidate))
	}
	// Verify the outbreak clears after ~4 days using the RIB dumps.
	if pl := d.lifespans.Prefixes[c.Prefix]; pl != nil {
		if dur, ok := pl.Duration(nil, nil); ok {
			fmt.Fprintf(&sb, "gone from all peers after %.1f days (paper: 4 days)\n", dur.Hours()/24)
			metrics["days"] = dur.Hours() / 24
		}
	}
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}

func runCaseLongLived(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	c, ok := d.Cases["hgc"]
	if !ok {
		return nil, fmt.Errorf("experiments: hgc case missing")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "§5.2 extremely long-lived zombie: %s (paper's instance: 2a0d:3dc1:163::/48)\n\n", c.Prefix)
	metrics := map[string]float64{}
	pl := d.lifespans.Prefixes[c.Prefix]
	if pl == nil || len(pl.Episodes) == 0 {
		sb.WriteString("no RIB-dump visibility\n")
		return &Result{Text: sb.String(), Metrics: metrics}, nil
	}

	for _, ep := range pl.Episodes {
		days := ep.LastSeen.Sub(c.WithdrawAt).Hours() / 24
		fmt.Fprintf(&sb, "  %s (%s): stuck %s -> %s (%.1f days after withdrawal)\n",
			ep.Peer.AS, ep.Peer.Collector,
			ep.FirstSeen.Format(time.DateOnly), ep.LastSeen.Format(time.DateOnly), days)
		metrics[fmt.Sprintf("%s.days", ep.Peer.AS)] = days
	}
	ob := zombie.Outbreak{}
	for _, ep := range pl.Episodes {
		ob.Routes = append(ob.Routes, zombie.Route{Path: ep.Path})
	}
	if rc, ok := zombie.InferRootCause(ob.Paths()); ok {
		fmt.Fprintf(&sb, "\ncommon subpath: %s (paper: 9304 6939 43100 25091 8298 210312)\n", rc.SubpathString())
		fmt.Fprintf(&sb, "root cause candidate: %s, customer cone %d ASes (paper: AS9304, ~750)\n",
			rc.Candidate, d.Graph.CustomerConeSize(rc.Candidate))
		metrics["candidate"] = float64(rc.Candidate)
	}
	if dur, ok := pl.Duration(nil, nil); ok {
		fmt.Fprintf(&sb, "outbreak duration: %.1f days (~%.1f months; paper: ~4.5 months)\n",
			dur.Hours()/24, dur.Hours()/24/30)
		metrics["days"] = dur.Hours() / 24
	}
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}
