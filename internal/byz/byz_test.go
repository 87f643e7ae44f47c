package byz

import (
	"math"
	"slices"
	"testing"

	"fttt/internal/obs"
	"fttt/internal/vector"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{QuorumThreshold: 0.4},
		{QuorumThreshold: 1.5},
		{MinQuorum: 0.5},
		{SuspectAbove: 1.2},
		{SuspectAbove: 0.3, ClearBelow: 0.4},
		{LearnRate: 2},
		{TrustFloor: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, c)
		}
	}
}

// vote is one witness's composed opinion on a pair relation: the
// vouched sign (+1, −1, or 0 for abstain) and its trust weight.
type vote struct {
	sign   int
	weight float64
}

// tally sums votes into the per-sign weights quorum decides on,
// skipping non-positive weights and abstentions as voteOnPair does.
func tally(votes []vote) (pos, neg float64) {
	for _, v := range votes {
		if v.weight <= 0 {
			continue
		}
		switch {
		case v.sign > 0:
			pos += v.weight
		case v.sign < 0:
			neg += v.weight
		}
	}
	return pos, neg
}

func TestQuorumVote(t *testing.T) {
	cases := []struct {
		name      string
		votes     []vote
		minQ, thr float64
		wantSign  int
		wantOK    bool
	}{
		{"unanimous", []vote{{1, 1}, {1, 1}, {1, 1}}, 3, 2.0 / 3, 1, true},
		{"below min quorum", []vote{{1, 1}, {1, 1}}, 3, 2.0 / 3, 0, false},
		{"split below threshold", []vote{{1, 2}, {-1, 2}}, 3, 2.0 / 3, 0, false},
		{"supermajority negative", []vote{{-1, 3}, {1, 1}}, 3, 0.75, -1, true},
		{"zero weights ignored", []vote{{1, 0}, {-1, 3}}, 3, 2.0 / 3, -1, true},
		{"no votes", nil, 1, 0.6, 0, false},
		{"no weight under a zero quorum", nil, 0, 0.6, 0, false},
	}
	for _, c := range cases {
		pos, neg := tally(c.votes)
		sign, ok := quorum(pos, neg, c.minQ, c.thr)
		if sign != c.wantSign || ok != c.wantOK {
			t.Errorf("%s: got (%d,%v), want (%d,%v)", c.name, sign, ok, c.wantSign, c.wantOK)
		}
	}
}

// honestVector builds the sampling vector a fully consistent distance
// ordering produces: node i is the i-th nearest, so every pair (i, j)
// with i < j reads Nearer.
func honestVector(n int) vector.Vector {
	v := vector.New(n)
	for k := range v {
		v[k] = vector.Nearer
	}
	return v
}

// corrupt inverts every pair involving the given node in place.
func corrupt(v vector.Vector, n int, node int) {
	for k := range v {
		i, j := vector.PairAt(k, n)
		if i == node || j == node {
			if !v[k].IsStar() {
				v[k] = -v[k]
			}
		}
	}
}

// TestHonestFleetStaysUntouched: under honest (even mildly noisy)
// sensing the defense must return nil weights and leave the vector
// alone — the byte-identity contract.
func TestHonestFleetStaysUntouched(t *testing.T) {
	const n = 8
	d := New(Config{Enabled: true}, n, 5, nil)
	for round := 0; round < 50; round++ {
		v := honestVector(n)
		// A little benign disagreement: one pair reads Flipped (target in
		// its uncertain area) — sign 0, never an inversion.
		v[round%v.Dim()] = vector.Flipped
		before := v.Clone()
		if w := d.Apply(v); w != nil {
			t.Fatalf("round %d: honest fleet got weights %v", round, w)
		}
		if !slices.Equal(v, before) {
			t.Fatalf("round %d: Apply modified an honest vector", round)
		}
		d.Observe(honestVector(n))
	}
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("honest fleet flagged suspects %v", s)
	}
	for i := 0; i < n; i++ {
		if tr := d.NodeTrust(i); tr != 1 {
			t.Errorf("node %d trust %v, want 1 (benign floor must absorb mild mismatch)", i, tr)
		}
	}
}

// TestDetectsInvertingNode: a node that persistently inverts its pair
// reports gets flagged, its pairs are quorum-corrected back to the
// honest relation, and the pair weights drop for its pairs only.
func TestDetectsInvertingNode(t *testing.T) {
	const n, bad = 8, 2
	reg := obs.NewRegistry()
	d := New(Config{Enabled: true}, n, 5, reg)
	sig := honestVector(n)
	var w []float64
	for round := 0; round < 12; round++ {
		v := honestVector(n)
		corrupt(v, n, bad)
		w = d.Apply(v)
		if len(d.Suspects()) > 0 {
			// Post-detection: no corrupted pair may survive with its wrong
			// sign — each is either quorum-corrected back to the honest
			// relation or starred out; honest pairs stay untouched.
			// (Weights alone can appear earlier: the watch-level alert
			// downweights before the suspect threshold confirms.)
			corrected := 0
			for k := range v {
				i, j := vector.PairAt(k, n)
				if i == bad || j == bad {
					if v[k].IsStar() {
						continue
					}
					if v[k] != vector.Nearer {
						t.Fatalf("round %d: pair (%d,%d) kept corrupted value %v", round, i, j, v[k])
					}
					corrected++
				} else if v[k] != vector.Nearer {
					t.Fatalf("round %d: honest pair (%d,%d) modified to %v", round, i, j, v[k])
				}
			}
			if corrected == 0 {
				t.Fatalf("round %d: quorum corrected no pair at all", round)
			}
		}
		d.Observe(sig)
	}
	if s := d.Suspects(); len(s) != 1 || s[0] != bad {
		t.Fatalf("suspects = %v, want [%d]", d.Suspects(), bad)
	}
	if w == nil {
		t.Fatal("no weights emitted after detection")
	}
	for k := range w {
		i, j := vector.PairAt(k, n)
		touched := i == bad || j == bad
		if touched && w[k] >= 1 {
			t.Errorf("pair (%d,%d) weight %v, want < 1", i, j, w[k])
		}
		if !touched && w[k] != 1 {
			t.Errorf("honest pair (%d,%d) weight %v, want exactly 1", i, j, w[k])
		}
	}
	if got := reg.Counter("fttt_byz_suspects_total").Value(); got != 1 {
		t.Errorf("fttt_byz_suspects_total = %v, want 1", got)
	}
	if got := reg.Counter("fttt_byz_votes_overridden_total").Value(); got == 0 {
		t.Error("fttt_byz_votes_overridden_total stayed 0 despite corrections")
	}
	if tr := reg.Gauge("fttt_byz_node_trust{node=\"2\"}").Value(); tr > 0.7 {
		t.Errorf("bad node trust gauge %v, want low", tr)
	}
	if tr := reg.Gauge("fttt_byz_node_trust{node=\"0\"}").Value(); tr < 0.7 {
		t.Errorf("honest node trust gauge %v, want high", tr)
	}
}

// TestNoQuorumStarsOut: when too few witnesses remain to form a quorum,
// a suspect's pairs degrade to Star instead of being trusted or guessed.
func TestNoQuorumStarsOut(t *testing.T) {
	const n = 4 // pairs involving a suspect have only 2 witnesses < MinQuorum=3
	d := New(Config{Enabled: true, MinRounds: 1}, n, 5, nil)
	sig := honestVector(n)
	for round := 0; round < 10; round++ {
		v := honestVector(n)
		corrupt(v, n, 0)
		d.Apply(v)
		d.Observe(sig)
	}
	if len(d.Suspects()) == 0 {
		t.Fatal("inverting node not flagged")
	}
	v := honestVector(n)
	corrupt(v, n, 0)
	if w := d.Apply(v); w == nil {
		t.Fatal("no weights after detection")
	}
	for k := range v {
		i, _ := vector.PairAt(k, n)
		if i == 0 && !v[k].IsStar() {
			t.Errorf("pair %d involving the quorum-less suspect kept value %v, want Star", k, v[k])
		}
	}
}

// TestSuspectHysteresis: a flagged node whose behavior turns honest
// again decays below ClearBelow and is cleared.
func TestSuspectHysteresis(t *testing.T) {
	const n = 8
	d := New(Config{Enabled: true, MinRounds: 1}, n, 5, nil)
	sig := honestVector(n)
	for round := 0; round < 8; round++ {
		v := honestVector(n)
		corrupt(v, n, 3)
		d.Apply(v)
		d.Observe(sig)
	}
	if len(d.Suspects()) != 1 {
		t.Fatalf("suspects = %v, want exactly node 3", d.Suspects())
	}
	// Clearing is deliberately slow (DecayRate = LearnRate/5): evidence
	// must outlive episodic attacks, so redemption takes ~5× as long as
	// conviction.
	for round := 0; round < 80 && len(d.Suspects()) > 0; round++ {
		d.Apply(honestVector(n))
		d.Observe(sig)
	}
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspect never cleared: %v (evid=%v)", s, d.evid[3])
	}
}

// TestBenignFloor pins the Def. 8-derived allowance: (1/2)^(k−1).
func TestBenignFloor(t *testing.T) {
	d := New(Config{Enabled: true}, 4, 5, nil)
	if got, want := d.benignFloor, math.Pow(0.5, 4); got != want {
		t.Errorf("benign floor for k=5: %v, want %v", got, want)
	}
	if d1 := New(Config{Enabled: true}, 4, 1, nil); d1.benignFloor != 1 {
		t.Errorf("k=1 floor %v, want 1 (single instant certifies nothing)", d1.benignFloor)
	}
}

// TestObservePairCountsMatchSignReference pins Observe's pair pass to
// its definition over every value class a vector carries — Star, the
// ternary values, signed zeros and fractional extended values: a pair
// is informative unless either side is Star, and an inversion when
// sign() of the two sides is strict and opposite.
func TestObservePairCountsMatchSignReference(t *testing.T) {
	vals := []vector.Value{vector.Star, vector.Farther, vector.Flipped, vector.Nearer,
		vector.Value(math.Copysign(0, -1)), 0.25, -0.5, 1e-300, -1e-300}
	const n = 9
	rng := uint64(1)
	pick := func() vector.Value {
		rng = rng*6364136223846793005 + 1442695040888963407
		return vals[(rng>>33)%uint64(len(vals))]
	}
	d := New(Config{}, n, 5, nil)
	for round := 0; round < 500; round++ {
		orig, sig := vector.New(n), vector.New(n)
		for k := range orig {
			orig[k], sig[k] = pick(), pick()
		}
		wantTot, wantInv := make([]int, n), make([]int, n)
		idx := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				o, s := orig[idx], sig[idx]
				idx++
				if o.IsStar() || s.IsStar() {
					continue
				}
				wantTot[i]++
				wantTot[j]++
				if so, ss := sign(o), sign(s); so != 0 && ss != 0 && so != ss {
					wantInv[i]++
					wantInv[j]++
				}
			}
		}
		d.Apply(orig)
		d.Observe(sig)
		for i := 0; i < n; i++ {
			if d.tot[i] != wantTot[i] || d.inv[i] != wantInv[i] {
				t.Fatalf("round %d node %d: tot/inv %d/%d, reference %d/%d",
					round, i, d.tot[i], d.inv[i], wantTot[i], wantInv[i])
			}
		}
	}
}

// refLinkVal is the per-link reference for the vote's link table: the
// sign of one composition link (a, b), read from the current
// pre-correction snapshot when both nodes are trusted and from the
// previous matched signature when either is suspect; false when the
// link carries no usable information.
func refLinkVal(d *Defense, a, b int) (int, bool) {
	src := d.orig
	if d.suspect[a] || d.suspect[b] {
		src = d.lastSig
		if len(src) != len(d.orig) {
			return 0, false
		}
	}
	return sign(refPairValIn(src, a, b, d.n)), true
}

// refPairValIn reads the ordered relation value for nodes (a, b) from v,
// flipping the stored (min, max) pair value when a > b.
func refPairValIn(v vector.Vector, a, b, n int) vector.Value {
	if a < b {
		return v[vector.PairIndex(a, b, n)]
	}
	x := v[vector.PairIndex(b, a, n)]
	if x.IsStar() {
		return x
	}
	return -x
}

// refVoteOnPair is voteOnPair computed link by link, with the same
// witness order and accumulation order.
func refVoteOnPair(d *Defense, i, j int) (int, bool) {
	var pos, neg float64
	for m := 0; m < d.n; m++ {
		if m == i || m == j || d.suspect[m] {
			continue
		}
		sim, ok1 := refLinkVal(d, i, m)
		smj, ok2 := refLinkVal(d, m, j)
		if !ok1 || !ok2 || sim == 0 || sim != smj {
			continue
		}
		wt := d.NodeTrust(m)
		if wt <= 0 {
			continue
		}
		if sim > 0 {
			pos += wt
		} else {
			neg += wt
		}
	}
	return quorum(pos, neg, d.cfg.MinQuorum, d.cfg.QuorumThreshold)
}

// refApply is Apply's alert path without the link table: per-pair node
// weights and per-link votes. It reads the snapshot the preceding Apply
// took, so it must run on the same input right after it.
func refApply(d *Defense, v vector.Vector) []float64 {
	w := make([]float64, len(v))
	idx := 0
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			w[idx] = math.Min(d.nodeWeight(i), d.nodeWeight(j))
			if (d.suspect[i] || d.suspect[j]) && !v[idx].IsStar() {
				switch voted, ok := refVoteOnPair(d, i, j); {
				case !ok:
					v[idx] = vector.Star
				case voted > 0 && sign(v[idx]) != 1:
					v[idx] = vector.Nearer
				case voted < 0 && sign(v[idx]) != -1:
					v[idx] = vector.Farther
				}
			}
			idx++
		}
	}
	return w
}

// TestApplyMatchesLinkReference is the oracle for the link-table vote:
// over random suspect sets, evidence levels (including zero trust),
// vectors mixing Star, ternary, signed-zero and fractional values, and
// previous signatures that are absent, well-formed or of the wrong
// length, the table-driven Apply returns bit-identical weights and
// rewrites the vector bit-identically to the per-link reference.
func TestApplyMatchesLinkReference(t *testing.T) {
	vals := []vector.Value{vector.Star, vector.Farther, vector.Flipped, vector.Nearer,
		vector.Value(math.Copysign(0, -1)), 0.25, -0.5, 1e-300, -1e-300}
	evids := []float64{0, 0.04, 0.05, 0.07, 0.12, 0.19, 0.2, 0.5, 1}
	rng := uint64(7)
	next := func(k int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(k))
	}
	randVec := func(dim int) vector.Vector {
		v := make(vector.Vector, dim)
		for k := range v {
			v[k] = vals[next(len(vals))]
			if next(3) > 0 && !v[k].IsStar() { // skew toward strict relations so quorums form
				v[k] = []vector.Value{vector.Nearer, vector.Farther}[next(2)]
			}
		}
		return v
	}
	var starred, overridden, kept int
	for trial := 0; trial < 3000; trial++ {
		n := 3 + next(10)
		cfg := Config{MinQuorum: float64(1 + next(3)), QuorumThreshold: []float64{0, 0.55, 0.9}[next(3)]}
		d := New(cfg, n, 5, nil)
		for i := 0; i < n; i++ {
			d.evid[i] = evids[next(len(evids))]
			if next(3) == 0 {
				d.suspect[i] = true
				d.numSuspects++
			}
		}
		d.alert = true
		dim := n * (n - 1) / 2
		switch next(4) {
		case 0: // no signature observed yet
		case 1:
			d.lastSig = randVec(dim + 1) // wrong length: suspect links abstain
		default:
			d.lastSig = randVec(dim)
		}
		in := randVec(dim)
		got, want := in.Clone(), in.Clone()
		gw := d.Apply(got)
		ww := refApply(d, want)
		for k := range in {
			if math.Float64bits(float64(got[k])) != math.Float64bits(float64(want[k])) {
				t.Fatalf("trial %d (n=%d) pair %d: Apply %v, reference %v", trial, n, k, got[k], want[k])
			}
			if math.Float64bits(gw[k]) != math.Float64bits(ww[k]) {
				t.Fatalf("trial %d (n=%d) pair %d: weight %v, reference %v", trial, n, k, gw[k], ww[k])
			}
			switch {
			case got[k].IsStar() && !in[k].IsStar():
				starred++
			case math.Float64bits(float64(got[k])) != math.Float64bits(float64(in[k])):
				overridden++
			case d.numSuspects > 0 && !in[k].IsStar():
				kept++
			}
		}
	}
	// The sweep must reach every vote outcome, or it proves little.
	if starred == 0 || overridden == 0 || kept == 0 {
		t.Fatalf("vote outcomes not all exercised: starred %d, overridden %d, kept %d", starred, overridden, kept)
	}
}
