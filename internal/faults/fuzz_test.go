package faults

import (
	"math"
	"sort"
	"testing"

	"fttt/internal/randx"
)

// scriptFloats lists every numeric parameter of a script, for the
// no-NaN check below.
func scriptFloats(s *Script) []float64 {
	var out []float64
	for _, ev := range s.Events {
		out = append(out, ev.At, ev.Fraction, ev.RecoverAt, ev.Factor, ev.Bias, ev.DecoyX, ev.DecoyY)
		if ev.Fixed != nil {
			out = append(out, *ev.Fixed)
		}
		if ev.Pivot != nil {
			out = append(out, *ev.Pivot)
		}
	}
	if b := s.Burst; b != nil {
		out = append(out, b.From, b.PGoodToBad, b.PBadToGood, b.BadLoss)
	}
	if d := s.Drift; d != nil {
		out = append(out, d.Sigma)
	}
	if k := s.Skew; k != nil {
		out = append(out, k.Max, k.Slew)
	}
	return out
}

// FuzzFaultsParse pins the fault-script parser's fail-closed contract on
// arbitrary text (scripts arrive from the wire in session configs):
// Parse never panics and returns exactly one of a script or an error;
// an accepted script passes Validate, carries no NaN parameter, lists
// its events in time order, and drives a scheduler — seeking, dropping,
// hop loss and RSS perturbation for every node, in range or not —
// without panicking.
func FuzzFaultsParse(f *testing.F) {
	for _, seed := range []string{
		"crash at=20 frac=0.3 recover=40\ncrash at=25 nodes=1,4,7\nrevive at=45 nodes=1,4",
		"drain at=10 factor=5 frac=0.5; burst pgb=0.05 pbg=0.5 loss=0.9 from=15",
		"drift sigma=0.2; skew max=0.02 slew=25 # comment",
		"spoof at=0 frac=0.2 bias=15; spoof at=1 nodes=2 rss=-35",
		"invert at=0 nodes=3 pivot=-60; collude at=0 frac=0.2 x=80 y=80",
		"crash at=0 frac=nan", "crash at=1 recover=nan", "drain at=0 factor=nan",
		"burst pgb=nan", "burst from=nan", "skew max=nan", "skew slew=nan",
		"crash at=inf frac=1", "crash nodes=-1", "crash nodes=99999999", "crash frac=2",
		"bogus at=1", "crash at", "crash =1", "crash at=1 fraction=0.3", "", ";;\n#",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if (s == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = (%v, %v): want exactly one of script, error", text, s, err)
		}
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse(%q) accepted a script Validate rejects: %v", text, verr)
		}
		for _, x := range scriptFloats(s) {
			if math.IsNaN(x) {
				t.Fatalf("Parse(%q) accepted a NaN parameter: %+v", text, s)
			}
		}
		if !sort.SliceIsSorted(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At }) {
			t.Fatalf("Parse(%q) events out of time order", text)
		}
		const n = 6
		sched := New(*s, n, 1)
		rng := randx.New(2)
		for _, now := range []float64{0, 0.5, 10, 30, 1e6} {
			sched.Seek(now)
			for node := -1; node <= n; node++ {
				sched.DropReport(node, rng)
				sched.HopLost(node, 0, 0.1, rng)
				sched.PerturbRSS(node, -60)
			}
		}
	})
}
