package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/netsim"
	"zombiescope/internal/zombie"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives all scenario randomness. Default 42.
	Seed uint64
	// Scale divides the paper's period durations (1 = full length,
	// 8 = default quick run). Larger is faster and smaller.
	Scale int
}

// ScheduleBeacons has origin announce or withdraw each beacon event's
// prefix on sim, in event order.
func ScheduleBeacons(sim *netsim.Simulator, origin bgp.ASN, events []beacon.Event) error {
	for _, ev := range events {
		var err error
		if ev.Announce {
			err = sim.ScheduleAnnounce(ev.At, origin, ev.Prefix, ev.Aggregator)
		} else {
			err = sim.ScheduleWithdraw(ev.At, origin, ev.Prefix)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 8
	}
	return c
}

// Result is an experiment's rendered output plus machine-checkable
// metrics.
type Result struct {
	Text    string
	Metrics map[string]float64
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string // e.g. "Table1", "Fig2"
	Title string
	// Paper summarizes what the paper reports, for EXPERIMENTS.md.
	Paper string
	Run   func(cfg Config) (*Result, error)
}

var (
	mu       sync.Mutex
	registry []Experiment
)

func register(e Experiment) {
	mu.Lock()
	defer mu.Unlock()
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	mu.Lock()
	defer mu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i].ID) < idOrder(out[j].ID) })
	return out
}

// idOrder sorts Table1..TableN before Fig1..FigN before cases.
func idOrder(id string) string {
	switch {
	case strings.HasPrefix(id, "Table"):
		return "0" + id
	case strings.HasPrefix(id, "Fig"):
		return "1" + id
	default:
		return "2" + id
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// periodDetection is one replication period's archive and its two
// detections over one tracked history: the revised methodology's (with
// path observations) and the legacy looking-glass baseline's.
type periodDetection struct {
	data   *PeriodData
	report *zombie.Report
	legacy *zombie.Report
}

// noisyReplicationAS excludes the known noisy peer (AS16347), as the
// paper's replication analysis does.
var noisyReplicationAS = map[bgp.ASN]bool{NoisyReplicationPeer: true}

// replicationCache shares one simulated replication dataset and its
// detections between the drivers that all consume it (Tables 1-4, Figs
// 5-7), keyed by config.
var (
	replMu    sync.Mutex
	replCache = map[Config][]*periodDetection{}
)

func replicationData(cfg Config) ([]*periodDetection, error) {
	replMu.Lock()
	defer replMu.Unlock()
	if d, ok := replCache[cfg]; ok {
		return d, nil
	}
	periods, err := RunReplication(DefaultReplicationConfig(cfg.Seed, cfg.Scale))
	if err != nil {
		return nil, err
	}
	dets := make([]*periodDetection, len(periods))
	for i, pd := range periods {
		h, err := zombie.BuildHistory(pd.Updates, intervalTrack(pd.Intervals))
		if err != nil {
			return nil, err
		}
		dets[i] = &periodDetection{
			data:   pd,
			report: (&zombie.Detector{RecordPaths: true}).DetectFromHistory(h, pd.Intervals),
			legacy: (&zombie.LegacyDetector{Seed: cfg.Seed}).Detect(h, pd.Intervals),
		}
	}
	replCache[cfg] = dets
	return dets, nil
}

// authorAnalysis is the author-beacon dataset with what every driver
// reads of it: the tracked history of the beacon prefixes and the
// lifespans of every interval through the RIB dumps. Drivers only read
// them.
type authorAnalysis struct {
	*AuthorData
	history   *zombie.History
	lifespans *zombie.LifespanReport
}

// authorCache shares the author-beacon analysis between Fig2/3/4, Table5,
// the case studies and the ablation.
var (
	authorMu    sync.Mutex
	authorCache = map[Config]*authorAnalysis{}
)

func authorData(cfg Config) (*authorAnalysis, error) {
	authorMu.Lock()
	defer authorMu.Unlock()
	if d, ok := authorCache[cfg]; ok {
		return d, nil
	}
	d, err := RunAuthorScenario(DefaultAuthorConfig(cfg.Seed, cfg.Scale))
	if err != nil {
		return nil, err
	}
	h, err := zombie.BuildHistory(d.Updates, intervalTrack(d.Intervals))
	if err != nil {
		return nil, err
	}
	lr, err := zombie.TrackLifespans(d.Dumps, d.Intervals, zombie.LifespanConfig{})
	if err != nil {
		return nil, err
	}
	a := &authorAnalysis{AuthorData: d, history: h, lifespans: lr}
	authorCache[cfg] = a
	return a, nil
}

// intervalTrack tracks the prefixes of the beacon intervals.
func intervalTrack(intervals []beacon.Interval) zombie.TrackSet {
	track := make(zombie.TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
	}
	return track
}
