// Package faults is the deterministic fault-injection substrate: it
// turns a declarative scenario script — node crashes and recoveries,
// accelerated battery depletion, correlated burst packet loss
// (a Gilbert–Elliott two-state channel layered on the substrate's
// per-hop loss), per-node RSS calibration drift and report clock skew —
// into a Scheduler that plugs into wsnnet.Network (FaultInjector) and
// sampling.Sampler (SampleFaults) through their nil-is-off hooks.
//
// Beyond the benign repertoire, the script language also expresses
// adversarial sensing (DESIGN.md §15): spoofed RSS (fixed or biased),
// inverted pair reports, and colluding node sets that steer estimates
// toward a decoy point. The adversarial behaviors are pure RSS
// transformations applied in PerturbRSS — they consume no random draws,
// so arming them never shifts the benign noise streams (the
// draw-conservation contract the adversarial differential tests pin).
//
// Everything is driven by randx substreams split from one seed, so a
// given (script, node count, seed) triple always produces the same
// fault timeline regardless of how the simulation around it is
// parallelised — the property the determinism-under-faults tests pin.
package faults

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// EventKind discriminates timed script events.
type EventKind int

const (
	// Crash kills the selected nodes at Event.At; RecoverAt > At revives
	// them later (a rebooting mote).
	Crash EventKind = iota
	// Revive restores the selected nodes (no-op for battery-dead ones).
	Revive
	// Drain multiplies the selected nodes' energy debits by Factor from
	// Event.At on — accelerated battery depletion from a degraded cell
	// or a chattering radio.
	Drain
	// Spoof makes the selected nodes report adversarial RSS from Event.At
	// on: a fixed replacement value (Fixed) or an additive bias (Bias) —
	// a compromised mote lying about signal strength.
	Spoof
	// Invert mirrors the selected nodes' RSS around a pivot
	// (rss' = 2·pivot − rss), flipping the node's pair-order reports far
	// beyond the benign flip-ratio model of Defs. 6–10.
	Invert
	// Collude makes the selected nodes report the RSS a target sitting at
	// the decoy point (DecoyX, DecoyY) would produce — a coordinated set
	// steering the estimate toward the decoy. Requires the scheduler's
	// geometry (Scheduler.SetGeometry); without it the colluders fall back
	// to a fixed strong RSS.
	Collude
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Revive:
		return "revive"
	case Drain:
		return "drain"
	case Spoof:
		return "spoof"
	case Invert:
		return "invert"
	case Collude:
		return "collude"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timed fault. Targets are either the explicit Nodes list
// or, when it is empty, a Fraction of the deployment picked
// deterministically from the scheduler's seed at application time.
type Event struct {
	// At is the virtual time the event fires (seconds).
	At float64
	// Kind selects the fault.
	Kind EventKind
	// Nodes are explicit target IDs; empty defers to Fraction.
	Nodes []int
	// Fraction of the deployment to target when Nodes is empty, in
	// [0, 1]; the node set is drawn from the scheduler seed.
	Fraction float64
	// RecoverAt, for Crash events, revives the crashed nodes at this
	// time; 0 (or ≤ At) means the crash is permanent.
	RecoverAt float64
	// Factor is the Drain energy multiplier (> 1 accelerates depletion).
	Factor float64
	// Bias is the Spoof additive RSS offset in dB (spoof bias=).
	Bias float64
	// Fixed, for Spoof events, replaces the node's RSS outright
	// (spoof rss=); nil selects the additive-bias form.
	Fixed *float64
	// Pivot, for Invert events, is the mirror point in dBm
	// (invert pivot=); nil selects a deployment-scale default at
	// application time.
	Pivot *float64
	// DecoyX, DecoyY are the Collude decoy-point coordinates.
	DecoyX, DecoyY float64
}

// Burst parameterises the Gilbert–Elliott two-state loss channel: each
// transmitting node carries a good/bad channel state that evolves one
// step per transmission; in the bad state the per-hop loss probability
// is BadLoss instead of the substrate's configured base loss.
type Burst struct {
	// From is the activation time (seconds); the channel is ideal-base
	// before it.
	From float64
	// PGoodToBad is the per-transmission good→bad transition probability.
	PGoodToBad float64
	// PBadToGood is the per-transmission bad→good transition probability.
	PBadToGood float64
	// BadLoss is the per-hop loss probability while in the bad state.
	BadLoss float64
}

// Drift parameterises per-node RSS calibration drift: node i's reported
// RSS gains slope_i·t dB where slope_i ~ N(0, Sigma) is drawn once from
// the scheduler seed.
type Drift struct {
	// Sigma is the per-node drift-slope standard deviation in dB/s.
	Sigma float64
}

// Skew parameterises report clock skew: node i carries a fixed offset
// skew_i ~ U(−Max, Max) seconds, modelled as the RSS slew the stale
// sampling window produces (bias = skew_i · Slew dB).
type Skew struct {
	// Max bounds the per-node clock offset in seconds.
	Max float64
	// Slew converts a clock offset into an RSS bias (dB/s): how fast the
	// target's signal changes under the scenario's motion. 0 selects a
	// default of 20 dB/s.
	Slew float64
}

// Script is a declarative fault scenario: a time-ordered event list
// plus the continuous fault processes.
type Script struct {
	// Events fire in At order (ties in input order).
	Events []Event
	// Burst, when non-nil, enables the Gilbert–Elliott loss channel.
	Burst *Burst
	// Drift, when non-nil, enables RSS calibration drift.
	Drift *Drift
	// Skew, when non-nil, enables report clock skew.
	Skew *Skew
}

// Validate reports script errors, a NaN in any parameter among them.
func (s *Script) Validate() error {
	for i, ev := range s.Events {
		if ev.At < 0 || math.IsNaN(ev.At) {
			return fmt.Errorf("faults: event %d: negative time %v", i, ev.At)
		}
		if len(ev.Nodes) == 0 && (ev.Fraction < 0 || ev.Fraction > 1) {
			return fmt.Errorf("faults: event %d: fraction %v outside [0,1]", i, ev.Fraction)
		}
		for _, id := range ev.Nodes {
			if id < 0 {
				return fmt.Errorf("faults: event %d: negative node id %d", i, id)
			}
		}
		if ev.Kind == Drain && ev.Factor <= 0 {
			return fmt.Errorf("faults: event %d: drain factor must be positive, got %v", i, ev.Factor)
		}
		if ev.Kind != Crash && ev.RecoverAt != 0 {
			return fmt.Errorf("faults: event %d: recover only applies to crash events", i)
		}
		if ev.Kind == Spoof {
			if ev.Fixed == nil && ev.Bias == 0 {
				return fmt.Errorf("faults: event %d: spoof needs bias= or rss=", i)
			}
			if ev.Fixed != nil && ev.Bias != 0 {
				return fmt.Errorf("faults: event %d: spoof takes bias= or rss=, not both", i)
			}
			if ev.Fixed != nil && math.IsNaN(*ev.Fixed) {
				return fmt.Errorf("faults: event %d: spoof rss is NaN", i)
			}
		}
		if math.IsNaN(ev.Fraction) || math.IsNaN(ev.RecoverAt) || math.IsNaN(ev.Factor) ||
			math.IsNaN(ev.Bias) || (ev.Pivot != nil && math.IsNaN(*ev.Pivot)) ||
			math.IsNaN(ev.DecoyX) || math.IsNaN(ev.DecoyY) {
			return fmt.Errorf("faults: event %d: NaN parameter", i)
		}
	}
	if b := s.Burst; b != nil {
		for _, p := range []struct {
			name string
			v    float64
		}{{"pgb", b.PGoodToBad}, {"pbg", b.PBadToGood}, {"loss", b.BadLoss}} {
			if !(p.v >= 0 && p.v <= 1) {
				return fmt.Errorf("faults: burst %s=%v outside [0,1]", p.name, p.v)
			}
		}
		if !(b.From >= 0) {
			return fmt.Errorf("faults: burst from=%v negative", b.From)
		}
	}
	if d := s.Drift; d != nil && (d.Sigma < 0 || math.IsNaN(d.Sigma)) {
		return fmt.Errorf("faults: drift sigma=%v invalid", d.Sigma)
	}
	if k := s.Skew; k != nil && !(k.Max >= 0 && k.Slew >= 0) {
		return fmt.Errorf("faults: skew max=%v slew=%v invalid", k.Max, k.Slew)
	}
	return nil
}

// Parse reads the scenario-script text format: one directive per line
// (';' also separates directives), '#' starts a comment. Directives:
//
//	crash   at=20 frac=0.3 [recover=40]   # or nodes=1,4,7
//	revive  at=45 nodes=1,4
//	drain   at=10 factor=5 [frac=0.5 | nodes=...]
//	burst   pgb=0.05 pbg=0.5 loss=0.9 [from=0]
//	drift   sigma=0.2
//	skew    max=0.02 [slew=20]
//	spoof   at=0 frac=0.2 bias=15        # or rss=-35 for a fixed value
//	invert  at=0 nodes=3 [pivot=-60]
//	collude at=0 frac=0.2 x=80 y=80      # decoy point the set steers toward
//
// Events keep their input order within equal times.
func Parse(text string) (*Script, error) {
	s := &Script{}
	lines := strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' })
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		kv, err := parseArgs(fields[1:])
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %v", ln+1, err)
		}
		switch fields[0] {
		case "crash", "revive", "drain", "spoof", "invert", "collude":
			ev := Event{
				At:        kv.f("at", 0),
				Fraction:  kv.f("frac", 0),
				RecoverAt: kv.f("recover", 0),
				Factor:    kv.f("factor", 0),
			}
			switch fields[0] {
			case "crash":
				ev.Kind = Crash
			case "revive":
				ev.Kind = Revive
			case "drain":
				ev.Kind = Drain
				if ev.Factor == 0 {
					ev.Factor = 2
				}
			case "spoof":
				ev.Kind = Spoof
				ev.Bias = kv.f("bias", 0)
				ev.Fixed = kv.fp("rss")
			case "invert":
				ev.Kind = Invert
				ev.Pivot = kv.fp("pivot")
			case "collude":
				ev.Kind = Collude
				ev.DecoyX = kv.f("x", 0)
				ev.DecoyY = kv.f("y", 0)
			}
			if nodes, ok := kv.raw["nodes"]; ok {
				kv.used["nodes"] = true
				for _, tok := range strings.Split(nodes, ",") {
					id, err := strconv.Atoi(strings.TrimSpace(tok))
					if err != nil {
						return nil, fmt.Errorf("faults: line %d: bad node id %q", ln+1, tok)
					}
					ev.Nodes = append(ev.Nodes, id)
				}
			}
			s.Events = append(s.Events, ev)
		case "burst":
			s.Burst = &Burst{
				From:       kv.f("from", 0),
				PGoodToBad: kv.f("pgb", 0.05),
				PBadToGood: kv.f("pbg", 0.5),
				BadLoss:    kv.f("loss", 0.9),
			}
		case "drift":
			s.Drift = &Drift{Sigma: kv.f("sigma", 0.1)}
		case "skew":
			s.Skew = &Skew{Max: kv.f("max", 0.02), Slew: kv.f("slew", 0)}
		default:
			return nil, fmt.Errorf("faults: line %d: unknown directive %q", ln+1, fields[0])
		}
		if err := kv.unused(); err != nil {
			return nil, fmt.Errorf("faults: line %d: %v", ln+1, err)
		}
	}
	// Stable time order so the scheduler can apply events with one cursor.
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads a script from a file, or parses spec inline when it is not
// a readable path (an "@path" prefix forces the file interpretation).
func Load(spec string) (*Script, error) {
	if path, ok := strings.CutPrefix(spec, "@"); ok {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("faults: %v", err)
		}
		return Parse(string(b))
	}
	if b, err := os.ReadFile(spec); err == nil {
		return Parse(string(b))
	}
	return Parse(spec)
}

// args is the parsed key=value list of one directive.
type args struct {
	raw  map[string]string
	used map[string]bool
}

func parseArgs(fields []string) (*args, error) {
	a := &args{raw: map[string]string{}, used: map[string]bool{}}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("expected key=value, got %q", f)
		}
		a.raw[k] = v
	}
	return a, nil
}

// f returns the float value of key, or def when absent.
func (a *args) f(key string, def float64) float64 {
	v, ok := a.raw[key]
	if !ok {
		return def
	}
	a.used[key] = true
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return math.NaN() // surfaces through Validate
	}
	return x
}

// fp returns a pointer to the float value of key, or nil when absent —
// for parameters whose zero value is meaningful (a 0 dBm spoof RSS).
func (a *args) fp(key string) *float64 {
	if _, ok := a.raw[key]; !ok {
		return nil
	}
	x := a.f(key, 0)
	return &x
}

// unused reports keys no directive consumed — catches typos like
// "fraction=" for "frac=".
func (a *args) unused() error {
	for k := range a.raw {
		if !a.used[k] {
			return fmt.Errorf("unknown key %q", k)
		}
	}
	return nil
}
