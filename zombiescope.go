// Package zombiescope is a toolkit for studying BGP zombies — routes that
// remain in routers' RIBs after the origin AS withdrew the prefix — as
// described in "A First Look into Long-lived BGP Zombies" (IMC 2025).
//
// The package is a facade over the implementation packages and exposes the
// pieces a downstream user needs:
//
//   - the revised zombie detection methodology (Detector), which works
//     solely from collector raw data (MRT archives) at message-level
//     granularity, eliminates double-counting with the Aggregator BGP
//     clock, and flags noisy peers;
//   - the legacy looking-glass baseline (LegacyDetector) of the prior
//     study, for methodology comparisons;
//   - lifespan tracking over RIB dumps (TrackLifespans), including
//     detection of zombie resurrections;
//   - palm-tree root-cause inference (InferRootCause);
//   - beacon schedules and the prefix/Aggregator BGP-clock encodings
//     (BeaconSchedule, EncodeAuthorPrefix, AggregatorClock);
//   - the simulation substrate used to generate realistic collector
//     archives when real ones are unavailable: an AS-level topology
//     (Topology), an event-driven BGP simulator with zombie fault
//     injection (Simulator), and a RIS-like collector fleet (Fleet).
//
// A minimal end-to-end run:
//
//	g := zombiescope.NewTopology()
//	// ... add ASes and links, or use topology.Generate ...
//	sim := zombiescope.NewSimulator(g, zombiescope.SimConfig{Seed: 1})
//	fleet := zombiescope.NewFleet()
//	sim.SetSink(fleet)
//	// ... announce/withdraw beacons, inject faults, run ...
//	det := &zombiescope.Detector{}
//	report, err := det.Detect(fleet.UpdatesData(), intervals)
//
// See examples/ for complete programs and internal/experiments for the
// drivers that regenerate every table and figure of the paper.
package zombiescope

import (
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/rpki"
	"zombiescope/internal/topology"
	"zombiescope/internal/zombie"
)

// ASN is a four-octet autonomous system number.
type ASN = bgp.ASN

// ASPath is a BGP AS path.
type ASPath = bgp.ASPath

// Aggregator is the AGGREGATOR path attribute, used by beacons as a BGP
// clock.
type Aggregator = bgp.Aggregator

// Detection API (the paper's primary contribution).
type (
	// Detector runs the revised zombie detection over MRT archives.
	Detector = zombie.Detector
	// LegacyDetector is the prior study's looking-glass baseline.
	LegacyDetector = zombie.LegacyDetector
	// Report is a detection result.
	Report = zombie.Report
	// Outbreak is the set of zombie routes of one prefix in one beacon
	// interval.
	Outbreak = zombie.Outbreak
	// ZombieRoute is one stuck route at one collector peer.
	ZombieRoute = zombie.Route
	// PeerID identifies one collector session.
	PeerID = zombie.PeerID
	// FilterOptions selects which detections count (dedup, noisy peers,
	// address family).
	FilterOptions = zombie.FilterOptions
	// PeerScore is a peer's zombie likelihood.
	PeerScore = zombie.PeerScore
	// NoisyConfig tunes noisy-peer flagging.
	NoisyConfig = zombie.NoisyConfig
	// LifespanReport tracks zombie visibility over RIB dumps.
	LifespanReport = zombie.LifespanReport
	// LifespanConfig tunes lifespan episode construction.
	LifespanConfig = zombie.LifespanConfig
	// Resurrection is a reappearance of a withdrawn prefix with no new
	// announcement.
	Resurrection = zombie.Resurrection
	// RootCause is the palm-tree inference outcome.
	RootCause = zombie.RootCause
)

// Detection helpers.
var (
	// BuildHistory reconstructs per-(peer, prefix) state from archives.
	BuildHistory = zombie.BuildHistory
	// NewTrackSet selects the prefixes to reconstruct.
	NewTrackSet = zombie.NewTrackSet
	// TrackLifespans follows zombies through RIB dumps.
	TrackLifespans = zombie.TrackLifespans
	// InferRootCause runs the palm-tree heuristic over stuck paths.
	InferRootCause = zombie.InferRootCause
	// ScorePeers computes per-peer zombie likelihoods.
	ScorePeers = zombie.ScorePeers
	// FlagNoisyPeers finds outlier peers to exclude.
	FlagNoisyPeers = zombie.FlagNoisyPeers
	// Sweep evaluates several detection thresholds over one history.
	Sweep = zombie.Sweep
	// BuildHistoryParallel is BuildHistory with an internal/pipeline
	// worker count; the History is identical for any parallelism (set
	// Detector.Parallelism or LifespanConfig.Parallelism to give whole
	// detections that many workers).
	BuildHistoryParallel = zombie.BuildHistoryParallel
)

// DefaultThreshold is the conservative 90-minute stuck-route threshold.
const DefaultThreshold = zombie.DefaultThreshold

// Beacon API.
type (
	// BeaconSchedule produces beacon events and detection intervals.
	BeaconSchedule = beacon.Schedule
	// BeaconEvent is one scheduled announcement or withdrawal.
	BeaconEvent = beacon.Event
	// BeaconInterval is one beacon cycle of a prefix.
	BeaconInterval = beacon.Interval
	// RISSchedule models the RIPE RIS beacons (4h announce, 2h withdraw).
	RISSchedule = beacon.RISSchedule
	// AuthorSchedule models the paper's beacons (15-minute slots with a
	// 24-hour or 15-day prefix recycle).
	AuthorSchedule = beacon.AuthorSchedule
)

// Beacon clock encodings.
var (
	// AggregatorClock encodes a timestamp as the RIS beacon Aggregator
	// address ("10.x.y.z" = seconds since the start of the month).
	AggregatorClock = beacon.AggregatorClock
	// DecodeAggregatorClock recovers the encoded announcement time.
	DecodeAggregatorClock = beacon.DecodeAggregatorClock
	// EncodeAuthorPrefix maps a slot time to the beacon /48.
	EncodeAuthorPrefix = beacon.EncodeAuthorPrefix
	// DecodeAuthorPrefix recovers the slot from a beacon /48.
	DecodeAuthorPrefix = beacon.DecodeAuthorPrefix
)

// Beacon recycle approaches.
const (
	Recycle24h = beacon.Recycle24h
	Recycle15d = beacon.Recycle15d
)

// Simulation substrate.
type (
	// Topology is an AS-level graph with business relationships.
	Topology = topology.Graph
	// Simulator propagates BGP routes over a topology with fault
	// injection.
	Simulator = netsim.Simulator
	// SimConfig parameterizes a Simulator.
	SimConfig = netsim.Config
	// FaultSet holds the zombie-producing faults.
	FaultSet = netsim.FaultSet
	// Session is one collector feed from a peer AS.
	Session = netsim.Session
	// Fleet is a RIS-like collector fleet writing MRT archives.
	Fleet = collector.Fleet
	// ROARegistry is a time-aware RPKI ROA registry.
	ROARegistry = rpki.Registry
	// ROA is a Route Origin Authorization.
	ROA = rpki.ROA
)

// Substrate constructors.
var (
	// NewTopology returns an empty AS graph.
	NewTopology = topology.New
	// GenerateTopology builds a deterministic Internet-like graph.
	GenerateTopology = topology.Generate
	// NewSimulator creates a simulator over a topology.
	NewSimulator = netsim.New
	// NewFleet returns an empty collector fleet.
	NewFleet = collector.NewFleet
	// MatchWithin builds a prefix matcher for fault scoping.
	MatchWithin = netsim.MatchWithin
)
