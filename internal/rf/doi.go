package rf

import (
	"fmt"
	"math"

	"fttt/internal/randx"
)

// Irregularity models direction-dependent sensing with the standard DOI
// (Degree Of Irregularity) construction: each node's antenna gain varies
// with azimuth as a continuous random walk over K sectors, with DOI the
// maximum per-degree gain change. The paper's introduction names sensing
// irregularity as one of the uncertainty sources FTTT must tolerate; the
// IrregularityRobustness experiment sweeps DOI to verify that tolerance.
//
// Gain values are in dB and average to zero over the circle, so DOI = 0
// degenerates to the isotropic model of eq. 1.
type Irregularity struct {
	// sectors[i] is the gain (dB) of sector i covering
	// [i, i+1)·(2π/len) radians.
	sectors []float64
}

// NewIrregularity draws one node's azimuthal gain map. doi is the
// per-degree maximum gain change (typical literature values 0.002-0.05
// when gains are scaled to the unit path loss; here it is interpreted
// directly in dB per degree). sectors must be ≥ 4.
func NewIrregularity(doi float64, sectors int, rng *randx.Stream) (*Irregularity, error) {
	if doi < 0 {
		return nil, fmt.Errorf("rf: DOI must be non-negative, got %v", doi)
	}
	if sectors < 4 {
		return nil, fmt.Errorf("rf: need at least 4 sectors, got %d", sectors)
	}
	g := make([]float64, sectors)
	if doi == 0 {
		return &Irregularity{sectors: g}, nil
	}
	degPerSector := 360 / float64(sectors)
	step := doi * degPerSector
	// Random walk around the circle…
	for i := 1; i < sectors; i++ {
		g[i] = g[i-1] + rng.Uniform(-step, step)
	}
	// …closed by spreading the wrap-around discontinuity evenly, then
	// centred to zero mean.
	gap := g[sectors-1] - g[0]
	for i := range g {
		g[i] -= gap * float64(i) / float64(sectors-1)
	}
	var mean float64
	for _, v := range g {
		mean += v
	}
	mean /= float64(sectors)
	for i := range g {
		g[i] -= mean
	}
	return &Irregularity{sectors: g}, nil
}

// Gain returns the gain (dB) toward azimuth theta (radians), with linear
// interpolation between sectors.
func (ir *Irregularity) Gain(theta float64) float64 {
	n := float64(len(ir.sectors))
	// Normalise theta to [0, 2π).
	t := math.Mod(theta, 2*math.Pi)
	if t < 0 {
		t += 2 * math.Pi
	}
	pos := t / (2 * math.Pi) * n
	i := int(pos)
	if i >= len(ir.sectors) {
		i = len(ir.sectors) - 1
	}
	frac := pos - float64(i)
	next := (i + 1) % len(ir.sectors)
	return ir.sectors[i]*(1-frac) + ir.sectors[next]*frac
}
