package sampling

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fttt/internal/vector"
)

// genGroup builds a random well-formed Group from quick's random source.
func genGroup(r *rand.Rand) *Group {
	n := 2 + r.Intn(6)
	k := 1 + r.Intn(7)
	g := &Group{
		RSS:      make([][]float64, k),
		Reported: make([]bool, n),
		Epsilon:  float64(r.Intn(3)) * 0.5,
	}
	anyReported := false
	for i := range g.Reported {
		g.Reported[i] = r.Intn(4) > 0
		anyReported = anyReported || g.Reported[i]
	}
	if !anyReported {
		g.Reported[0] = true
	}
	for t := range g.RSS {
		g.RSS[t] = make([]float64, n)
		for i := range g.RSS[t] {
			g.RSS[t][i] = r.NormFloat64() * 10
		}
	}
	return g
}

type groupValue struct{ g *Group }

// Generate implements quick.Generator.
func (groupValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(groupValue{g: genGroup(r)})
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(99))}
}

// Property: Algorithm 1's output dimension is always C(n,2) and every
// component is a legal pair value.
func TestQuickVectorWellFormed(t *testing.T) {
	f := func(gv groupValue) bool {
		v := gv.g.Vector()
		if v.Dim() != vector.NumPairs(gv.g.N()) {
			return false
		}
		for _, x := range v {
			if !x.IsStar() && x != vector.Nearer && x != vector.Farther && x != vector.Flipped {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: the extended vector agrees with the basic one on every
// decided (±1) pair and on every fault (±1/star) pair, and is strictly
// inside (-1, 1) exactly where the basic vector reports Flipped with no
// resolution ties pinned at the boundary.
func TestQuickExtendedConsistentWithBasic(t *testing.T) {
	f := func(gv groupValue) bool {
		b := gv.g.Vector()
		e := gv.g.ExtendedVector()
		if len(b) != len(e) {
			return false
		}
		for k := range b {
			switch {
			case b[k].IsStar():
				if !e[k].IsStar() {
					return false
				}
			case b[k] == vector.Nearer:
				if e[k] != 1 {
					return false
				}
			case b[k] == vector.Farther:
				if e[k] != -1 {
					return false
				}
			default: // Flipped
				if e[k].IsStar() || e[k] < -1 || e[k] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: eq. 6 — a pair with exactly one reporting node is ±1 with the
// reporting node on the winning side; two silent nodes give Star.
func TestQuickFaultFilling(t *testing.T) {
	f := func(gv groupValue) bool {
		g := gv.g
		v := g.Vector()
		n := g.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				val := v.Get(i, j, n)
				ri, rj := g.Reported[i], g.Reported[j]
				switch {
				case ri && !rj:
					if val != vector.Nearer {
						return false
					}
				case !ri && rj:
					if val != vector.Farther {
						return false
					}
				case !ri && !rj:
					if !val.IsStar() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: PairCounts partitions the k instants.
func TestQuickPairCountsPartition(t *testing.T) {
	f := func(gv groupValue) bool {
		g := gv.g
		n := g.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				w, l, u := g.PairCounts(i, j)
				if w+l+u != g.K() || w < 0 || l < 0 || u < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: scaling every RSS by a common additive constant never
// changes the sampling vector — FTTT is calibration-free by
// construction (unlike absolute-RSS methods).
func TestQuickShiftInvariance(t *testing.T) {
	f := func(gv groupValue, shiftRaw int) bool {
		g := gv.g
		shift := float64(shiftRaw%100) / 3
		shifted := &Group{
			RSS:      make([][]float64, g.K()),
			Reported: append([]bool(nil), g.Reported...),
			Epsilon:  g.Epsilon,
		}
		for t := range g.RSS {
			shifted.RSS[t] = make([]float64, g.N())
			for i := range g.RSS[t] {
				shifted.RSS[t][i] = g.RSS[t][i] + shift
			}
		}
		return sameVector(g.Vector(), shifted.Vector())
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
