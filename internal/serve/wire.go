package serve

import (
	"fmt"
	"math"
	"strings"

	"fttt/internal/byz"
	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/faults"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/sampling"
)

// PointWire is a field position on the wire.
type PointWire struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// RectWire is an axis-aligned rectangle on the wire; any two opposite
// corners are accepted.
type RectWire struct {
	Min PointWire `json:"min"`
	Max PointWire `json:"max"`
}

// SessionConfig is the JSON body of POST /v1/sessions. Zero-valued
// fields select the paper's Table 1 defaults (see DefaultConfig in the
// facade): 100×100 m field, ε=1 dBm, k=5 sampling times, R=40 m sensing
// range, 1 m division cells, the default signal model. Exactly one node
// source must be given: an explicit Nodes list, GridNodes, or
// RandomNodes (placed with the session seed's "deploy" substream).
type SessionConfig struct {
	// Seed roots the session's deterministic random stream; every
	// localize request for target T with per-target sequence n draws its
	// sampling noise from Split("target:"+T).SplitN("req", n) of this
	// root. Two sessions created with the same config and fed the same
	// per-target request sequences return byte-identical estimates.
	Seed uint64 `json:"seed"`

	Field       *RectWire   `json:"field,omitempty"`
	Nodes       []PointWire `json:"nodes,omitempty"`
	GridNodes   int         `json:"gridNodes,omitempty"`
	RandomNodes int         `json:"randomNodes,omitempty"`

	// Epsilon is the sensing resolution ε in dBm; 0 selects 1.
	Epsilon float64 `json:"epsilon,omitempty"`
	// SamplingTimes is k; 0 selects 5.
	SamplingTimes int `json:"samplingTimes,omitempty"`
	// Range is the sensing range in metres; 0 selects 40, negative
	// disables the range limit.
	Range float64 `json:"range,omitempty"`
	// CellSize is the division cell edge in metres; 0 selects 1.
	CellSize float64 `json:"cellSize,omitempty"`
	// Variant is "basic" (default) or "extended".
	Variant string `json:"variant,omitempty"`

	ReportLoss        float64 `json:"reportLoss,omitempty"`
	StarFractionLimit float64 `json:"starFractionLimit,omitempty"`
	RetryBackoff      float64 `json:"retryBackoff,omitempty"`
	Exhaustive        bool    `json:"exhaustive,omitempty"`

	// Faults is an inline fault-scenario script (internal/faults
	// directive syntax, e.g. "crash at=0 frac=0.3"); empty disables
	// injection. Only inline text is accepted — the wire never reads
	// server-side files.
	Faults string `json:"faults,omitempty"`
	// FaultSeed roots the fault scheduler's random choices; meaningful
	// only with Faults set.
	FaultSeed uint64 `json:"faultSeed,omitempty"`

	// Defense, when non-nil, arms the Byzantine-sensing defense layer
	// (internal/byz) on every target tracker of the session. Zero-valued
	// knobs select the documented defaults.
	Defense *DefenseWire `json:"defense,omitempty"`
}

// DefenseWire is the Byzantine defense configuration on the wire — the
// byz.Config knobs (DESIGN.md §15). A present but all-zero object arms
// the defense with defaults.
type DefenseWire struct {
	QuorumThreshold float64 `json:"quorumThreshold,omitempty"`
	MinQuorum       float64 `json:"minQuorum,omitempty"`
	SuspectAbove    float64 `json:"suspectAbove,omitempty"`
	ClearBelow      float64 `json:"clearBelow,omitempty"`
	LearnRate       float64 `json:"learnRate,omitempty"`
	DecayRate       float64 `json:"decayRate,omitempty"`
	MinRounds       int     `json:"minRounds,omitempty"`
	TrustFloor      float64 `json:"trustFloor,omitempty"`
}

// CoreConfig resolves the wire config into a validated core.Config.
// Errors wrap what core.Config.Validate (or the resolution itself)
// rejected; the server surfaces them verbatim as 400 bodies.
func (sc SessionConfig) CoreConfig() (core.Config, error) {
	field := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	if sc.Field != nil {
		field = geom.NewRect(
			geom.Pt(sc.Field.Min.X, sc.Field.Min.Y),
			geom.Pt(sc.Field.Max.X, sc.Field.Max.Y),
		)
	}
	sources := 0
	var nodes []geom.Point
	if len(sc.Nodes) > 0 {
		sources++
		nodes = make([]geom.Point, len(sc.Nodes))
		for i, p := range sc.Nodes {
			nodes[i] = geom.Pt(p.X, p.Y)
		}
	}
	if sc.GridNodes > 0 {
		sources++
		nodes = deploy.Grid(field, sc.GridNodes).Positions()
	}
	if sc.RandomNodes > 0 {
		sources++
		nodes = deploy.Random(field, sc.RandomNodes, randx.New(sc.Seed).Split("deploy")).Positions()
	}
	if sources != 1 {
		return core.Config{}, fmt.Errorf("serve: exactly one of nodes, gridNodes, randomNodes must be given (got %d sources)", sources)
	}
	cfg := core.Config{
		Field:             field,
		Nodes:             nodes,
		Model:             rf.Default(),
		Epsilon:           sc.Epsilon,
		SamplingTimes:     sc.SamplingTimes,
		Range:             sc.Range,
		CellSize:          sc.CellSize,
		ReportLoss:        sc.ReportLoss,
		StarFractionLimit: sc.StarFractionLimit,
		RetryBackoff:      sc.RetryBackoff,
		Exhaustive:        sc.Exhaustive,
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if cfg.SamplingTimes == 0 {
		cfg.SamplingTimes = 5
	}
	switch cfg.Range {
	case 0:
		cfg.Range = 40
	default:
		if cfg.Range < 0 {
			cfg.Range = 0 // core convention: 0 disables the range limit
		}
	}
	if cfg.CellSize == 0 {
		cfg.CellSize = 1
	}
	switch strings.ToLower(sc.Variant) {
	case "", "basic":
		cfg.Variant = core.Basic
	case "ext", "extended":
		cfg.Variant = core.Extended
	default:
		return core.Config{}, fmt.Errorf("serve: unknown variant %q (want basic or extended)", sc.Variant)
	}
	if sc.Faults != "" {
		script, err := faults.Parse(sc.Faults)
		if err != nil {
			return core.Config{}, fmt.Errorf("serve: bad faults script: %w", err)
		}
		cfg.FaultScript = script
		cfg.FaultSeed = sc.FaultSeed
	}
	if sc.Defense != nil {
		cfg.Defense = &byz.Config{
			Enabled:         true,
			QuorumThreshold: sc.Defense.QuorumThreshold,
			MinQuorum:       sc.Defense.MinQuorum,
			SuspectAbove:    sc.Defense.SuspectAbove,
			ClearBelow:      sc.Defense.ClearBelow,
			LearnRate:       sc.Defense.LearnRate,
			DecayRate:       sc.Defense.DecayRate,
			MinRounds:       sc.Defense.MinRounds,
			TrustFloor:      sc.Defense.TrustFloor,
		}
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// LocalizeWire is the JSON body of POST /v1/sessions/{id}/localize: the
// true target position to sample (the simulated-sensing path).
type LocalizeWire struct {
	Target string  `json:"target"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
}

// ReportWire is the JSON body of POST /v1/sessions/{id}/reports: an
// externally collected grouping sampling (the report-ingestion path) —
// the k×n RSS matrix of Def. 3 plus the reported set.
type ReportWire struct {
	Target   string    `json:"target"`
	RSS      RSSMatrix `json:"rss"`
	Reported []bool    `json:"reported"`
	// Epsilon overrides the session's sensing resolution for this group;
	// nil keeps the session value.
	Epsilon *float64 `json:"epsilon,omitempty"`
}

// Group converts the wire report into a sampling.Group with the
// session's epsilon as default, validating shape against n nodes.
func (rw ReportWire) Group(n int, sessionEpsilon float64) (*sampling.Group, error) {
	eps := sessionEpsilon
	if rw.Epsilon != nil {
		eps = *rw.Epsilon
	}
	g := &sampling.Group{RSS: rw.RSS, Reported: rw.Reported, Epsilon: eps}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(rw.RSS) == 0 {
		return nil, fmt.Errorf("serve: report needs at least one sampling instant")
	}
	if g.N() != n {
		return nil, fmt.Errorf("serve: report has %d node columns, session has %d nodes", g.N(), n)
	}
	return g, nil
}

// EstimateWire is one localization outcome on the wire. Similarity +Inf
// (an exact signature match) cannot be represented in JSON, so it is
// reported as Exact=true with Similarity 0.
type EstimateWire struct {
	Target string  `json:"target"`
	Seq    uint64  `json:"seq"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	FaceID int     `json:"faceId"`

	Similarity   float64 `json:"similarity"`
	Exact        bool    `json:"exact,omitempty"`
	Confidence   float64 `json:"confidence"`
	StarFraction float64 `json:"starFraction"`

	Reported int `json:"reported"`
	Stars    int `json:"stars"`
	Flipped  int `json:"flipped"`
	Visited  int `json:"visited"`

	FellBack     bool `json:"fellBack,omitempty"`
	Degraded     bool `json:"degraded,omitempty"`
	Retried      bool `json:"retried,omitempty"`
	Extrapolated bool `json:"extrapolated,omitempty"`
}

// WireEstimate converts a core estimate for target/seq into its wire
// form. It is exported so test harnesses (internal/serve/loadtest, the
// batching property tests) can build the byte-identical serial
// reference with the same conversion the server applies.
func WireEstimate(target string, seq uint64, est core.Estimate) EstimateWire {
	ew := EstimateWire{
		Target:       target,
		Seq:          seq,
		X:            est.Pos.X,
		Y:            est.Pos.Y,
		FaceID:       est.FaceID,
		Similarity:   est.Similarity,
		Confidence:   est.Confidence(),
		StarFraction: est.StarFraction(),
		Reported:     est.Reported,
		Stars:        est.Stars,
		Flipped:      est.Flipped,
		Visited:      est.Visited,
		FellBack:     est.FellBack,
		Degraded:     est.Degraded,
		Retried:      est.Retried,
		Extrapolated: est.Extrapolated,
	}
	if math.IsInf(est.Similarity, 1) {
		ew.Similarity, ew.Exact = 0, true
	}
	return ew
}

// RequestStream derives the noise substream the server assigns to the
// n-th localize request of a target within a session rooted at root —
// the determinism contract of SessionConfig.Seed, exported for serial
// reference harnesses.
func RequestStream(root *randx.Stream, target string, n uint64) *randx.Stream {
	return root.Split("target:"+target).SplitN("req", int(n))
}

// errorWire is the JSON body of every non-2xx response.
type errorWire struct {
	Error string `json:"error"`
}

// sessionWire describes a session in create/get/list responses.
type sessionWire struct {
	ID      string   `json:"id"`
	Nodes   int      `json:"nodes"`
	Faces   int      `json:"faces"`
	Variant string   `json:"variant"`
	Targets []string `json:"targets"`
}
