package field

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

type classifierCase struct {
	nodes []geom.Point
	c     float64
	p     geom.Point
}

// Generate implements quick.Generator: random 2-6 node layouts, C in
// (1, 2.5], random probe points.
func (classifierCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 2 + r.Intn(5)
	nodes := make([]geom.Point, n)
	for i := range nodes {
		nodes[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	return reflect.ValueOf(classifierCase{
		nodes: nodes,
		c:     1 + r.Float64()*1.5 + 1e-6,
		p:     geom.Pt(r.Float64()*100, r.Float64()*100),
	})
}

func quickCfg2() *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(77))}
}

// Property: classification is an exhaustive trichotomy consistent with
// the distance ratio, and antisymmetric under swapping the pair's roles.
func TestQuickClassifyTrichotomy(t *testing.T) {
	f := func(cc classifierCase) bool {
		rc, err := NewRatioClassifier(cc.nodes, cc.c)
		if err != nil {
			return false
		}
		n := len(cc.nodes)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rc.Classify(cc.p, i, j)
				di, dj := cc.p.Dist(cc.nodes[i]), cc.p.Dist(cc.nodes[j])
				switch v {
				case vector.Nearer:
					if !(di*cc.c <= dj) {
						return false
					}
				case vector.Farther:
					if !(dj*cc.c <= di) {
						return false
					}
				case vector.Flipped:
					if di*cc.c <= dj || dj*cc.c <= di {
						return false
					}
				default:
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg2()); err != nil {
		t.Error(err)
	}
}

// Property: growing C can only move pairs toward Flipped, never across
// from Nearer to Farther — uncertain areas are nested in C.
func TestQuickUncertaintyNestedInC(t *testing.T) {
	f := func(cc classifierCase) bool {
		small, err := NewRatioClassifier(cc.nodes, cc.c)
		if err != nil {
			return false
		}
		big := &RatioClassifier{Nodes: cc.nodes, C: cc.c * 1.5}
		n := len(cc.nodes)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				vs := small.Classify(cc.p, i, j)
				vb := big.Classify(cc.p, i, j)
				switch {
				case vs == vb:
				case vb == vector.Flipped:
					// Certain → uncertain is the only legal transition.
				default:
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg2()); err != nil {
		t.Error(err)
	}
}

// Property: Signature is position-deterministic and the grid division's
// FaceAt agrees with direct classification at every probed cell centre.
func TestQuickDivisionConsistentWithClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(4)
		nodes := make([]geom.Point, n)
		for i := range nodes {
			nodes[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		rc, err := NewRatioClassifier(nodes, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		div, err := Divide(fieldRect, rc, 5)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 50; probe++ {
			c, r := rng.Intn(div.Cols), rng.Intn(div.Rows)
			center := div.CellCenter(c, r)
			if !slices.Equal(div.FaceAt(center).Signature, Signature(rc, center)) {
				t.Fatalf("division disagrees with classifier at %v", center)
			}
		}
	}
}
