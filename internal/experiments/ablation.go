package experiments

import (
	"fmt"
	"strings"

	"zombiescope/internal/analysis"
	"zombiescope/internal/zombie"
)

func init() {
	register(Experiment{
		ID:    "AblationMethodology",
		Title: "Ablation: what each ingredient of the revised methodology contributes",
		Paper: "DESIGN.md design-choice ablations: the paper's methodology = raw data + session-state handling + Aggregator dedup + noisy-peer filter; removing any ingredient inflates the zombie counts (§3.1's three differences from the prior study).",
		Run:   runAblation,
	})
}

// runAblation re-runs detection on the author scenario with each
// methodology ingredient removed in turn, quantifying its contribution.
func runAblation(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	d, err := authorData(cfg)
	if err != nil {
		return nil, err
	}
	h := d.history
	full := (&zombie.Detector{}).DetectFromHistory(h, d.Intervals)
	noSessions := (&zombie.Detector{IgnoreSessionState: true}).DetectFromHistory(h, d.Intervals)

	fullClean := full.Filter(zombie.FilterOptions{ExcludePeerAS: d.NoisyPeerAS})
	noDedup := full.Filter(zombie.FilterOptions{IncludeDuplicates: true, ExcludePeerAS: d.NoisyPeerAS})
	noNoisyFilter := full.Filter(zombie.FilterOptions{})
	noSessionState := noSessions.Filter(zombie.FilterOptions{ExcludePeerAS: d.NoisyPeerAS})
	legacyLike := (&zombie.LegacyDetector{Seed: cfg.Seed}).
		Detect(h, d.Intervals).
		Filter(zombie.FilterOptions{IncludeDuplicates: true})

	tbl := &analysis.Table{
		Title:  "Ablation: zombie outbreaks and routes under degraded methodologies",
		Header: []string{"Methodology variant", "outbreaks", "routes", "vs full"},
	}
	baseObs := len(fullClean)
	row := func(name string, obs []zombie.Outbreak) (float64, float64) {
		delta := "baseline"
		if len(obs) != baseObs && baseObs > 0 {
			delta = fmt.Sprintf("%+.1f%%", float64(len(obs)-baseObs)/float64(baseObs)*100)
		}
		tbl.AddRow(name, len(obs), zombie.CountRoutes(obs), delta)
		return float64(len(obs)), float64(zombie.CountRoutes(obs))
	}
	metrics := map[string]float64{}
	metrics["full.obs"], metrics["full.routes"] = row("full revised methodology", fullClean)
	metrics["noDedup.obs"], metrics["noDedup.routes"] = row("without Aggregator dedup", noDedup)
	metrics["noNoisy.obs"], metrics["noNoisy.routes"] = row("without the noisy-peer filter", noNoisyFilter)
	metrics["noState.obs"], metrics["noState.routes"] = row("ignoring session STATE records", noSessionState)
	metrics["legacy.obs"], metrics["legacy.routes"] = row("legacy looking-glass pipeline", legacyLike)

	var sb strings.Builder
	tbl.Render(&sb)
	sb.WriteString("\nEvery removed ingredient inflates (or distorts) the counts: dedup removes\n")
	sb.WriteString("multi-interval duplicates, the noisy filter removes measurement-level\n")
	sb.WriteString("zombies, and session-state handling prevents dead sessions from being\n")
	sb.WriteString("mistaken for frozen RIBs — the three §3.1 differences from the prior study.\n")
	return &Result{ID: "AblationMethodology", Text: sb.String(), Metrics: metrics}, nil
}
