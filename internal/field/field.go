// Package field divides the monitor area into faces and builds their
// signature vectors, the preprocessing phase of Sec. 4.3.
//
// Exact face extraction from the arrangement of O(n²) Apollonius-circle
// pairs is a hard computational-geometry problem; the paper instead uses
// the approximate grid division of Sec. 4.3: overlay a square grid,
// compute each cell's signature vector, and group cells with identical
// signatures into faces (Lemma 1). Face centroids come from eq. 5, and
// neighbor-face links (Def. 8 / Theorem 1) come from 4-connected cell
// adjacency between cells of different faces.
package field

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// PairClassifier assigns the geometric node-pair value of a location:
// for the pair (i, j) with i < j it returns Nearer (+1) when the point is
// firmly nearer node i, Farther (-1) when firmly nearer node j, and
// Flipped (0) inside the pair's uncertain area.
type PairClassifier interface {
	Classify(p geom.Point, i, j int) vector.Value
	// NumNodes returns the number of nodes the classifier covers.
	NumNodes() int
}

// RatioClassifier classifies by distance ratio against the uncertainty
// constant C of eq. 3: value +1 iff d_i ≤ d_j / C, -1 iff d_i ≥ C·d_j,
// else 0. C == 1 degenerates to the certain perpendicular-bisector
// division used by the sequence-matching baselines (Fig. 3(a)); C > 1
// yields the Apollonius-bounded uncertain areas (Fig. 3(b)).
type RatioClassifier struct {
	Nodes []geom.Point
	C     float64
}

// NewRatioClassifier validates and returns a ratio classifier.
func NewRatioClassifier(nodes []geom.Point, c float64) (*RatioClassifier, error) {
	if c < 1 {
		return nil, fmt.Errorf("field: uncertainty constant C must be >= 1, got %v", c)
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("field: need at least 2 nodes, got %d", len(nodes))
	}
	return &RatioClassifier{Nodes: nodes, C: c}, nil
}

// DistanceClassifier is an optional PairClassifier extension for
// classifiers whose pair decision depends only on the point's distances
// to the two nodes. Divide uses it to precompute each cell's n node
// distances once and classify all C(n,2) pairs from the cache — n
// distance evaluations per cell instead of the 2·C(n,2) a naive
// pair-by-pair classification performs.
type DistanceClassifier interface {
	PairClassifier
	// AppendDistances appends the distance from p to every node, in node
	// order, and returns the extended slice.
	AppendDistances(dst []float64, p geom.Point) []float64
	// ClassifyDistances classifies a pair (i, j), i < j, from the
	// precomputed distances di and dj to the two nodes. It must agree
	// exactly with Classify.
	ClassifyDistances(di, dj float64) vector.Value
}

// NumNodes implements PairClassifier.
func (rc *RatioClassifier) NumNodes() int { return len(rc.Nodes) }

// Classify implements PairClassifier.
func (rc *RatioClassifier) Classify(p geom.Point, i, j int) vector.Value {
	return rc.ClassifyDistances(p.Dist(rc.Nodes[i]), p.Dist(rc.Nodes[j]))
}

// AppendDistances implements DistanceClassifier.
func (rc *RatioClassifier) AppendDistances(dst []float64, p geom.Point) []float64 {
	for _, node := range rc.Nodes {
		dst = append(dst, p.Dist(node))
	}
	return dst
}

// ClassifyDistances implements DistanceClassifier.
func (rc *RatioClassifier) ClassifyDistances(di, dj float64) vector.Value {
	switch {
	case di*rc.C <= dj:
		return vector.Nearer
	case dj*rc.C <= di:
		return vector.Farther
	default:
		return vector.Flipped
	}
}

// Signature returns the full signature vector of point p (Def. 6).
func Signature(c PairClassifier, p geom.Point) vector.Vector {
	v := vector.New(c.NumNodes())
	signatureInto(c, p, v, nil)
	return v
}

// signatureInto fills v (dimension C(n,2)) with the signature of p. When
// the classifier supports the distance fast path the n node distances are
// computed once into distBuf; the possibly-grown buffer is returned for
// reuse by the next cell.
func signatureInto(c PairClassifier, p geom.Point, v vector.Vector, distBuf []float64) []float64 {
	n := c.NumNodes()
	if dc, ok := c.(DistanceClassifier); ok {
		distBuf = dc.AppendDistances(distBuf[:0], p)
		k := 0
		for i := 0; i < n; i++ {
			di := distBuf[i]
			for j := i + 1; j < n; j++ {
				v[k] = dc.ClassifyDistances(di, distBuf[j])
				k++
			}
		}
		return distBuf
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v[k] = c.Classify(p, i, j)
			k++
		}
	}
	return distBuf
}

// Face is one equivalence class of grid cells sharing a signature vector.
type Face struct {
	// ID indexes the face within its Division.
	ID int
	// Signature is the face's signature vector (Lemma 1: unique per face).
	Signature vector.Vector
	// Centroid is the mean of the member cell centres (eq. 5) — the
	// location estimate reported when the target matches this face.
	Centroid geom.Point
	// Cells is the number of member grid cells; Cells × cellArea
	// approximates the face area (intra-face error of Sec. 5.2).
	Cells int
	// Neighbors lists the IDs of faces sharing at least one 4-connected
	// cell edge with this face, in ascending order.
	Neighbors []int
	// NeighborDiffs[i] lists the signature components in which this face
	// differs from Neighbors[i] — usually exactly one (Theorem 1). The
	// incremental matcher uses it to update a match distance in O(|diff|)
	// per hop instead of recomputing all C(n,2) components.
	NeighborDiffs [][]int
}

// Division is the preprocessed monitor area: the face set, the signature
// index, and the cell-to-face raster.
type Division struct {
	Field    geom.Rect
	CellSize float64
	Cols     int
	Rows     int
	Faces    []Face

	// cellFace[r*Cols+c] is the face ID of the cell at column c, row r.
	cellFace []int
	// bySig maps a ternary signature key to its face ID.
	bySig map[string]int
	// soa is the bitplane signature store the matcher's popcount kernel
	// streams; nil when a signature is not purely ternary (custom
	// classifiers emitting Star or fractional values). Built once
	// alongside the faces, immutable.
	soa *SigSoA
}

// SoA returns the division's bitplane signature store, or nil when a
// signature is not purely ternary — callers must fall back to the AoS
// Face.Signature path then.
func (d *Division) SoA() *SigSoA { return d.soa }

// dimEps guards the ceiling grid division against floating-point noise:
// an extent/cellSize quotient within 1e-9 of an integer counts as exact.
const dimEps = 1e-9

// gridDims returns the cell counts per axis for the approximate grid
// division: ⌈extent/cellSize⌉, so the grid always covers the whole field.
// When cellSize does not divide an extent the last row/column of cells
// overhangs the field's max edge (previously the count was rounded to
// nearest, which could leave up to half a cell of the field uncovered).
// A cell larger than either field extent is rejected.
func gridDims(fieldRect geom.Rect, cellSize float64) (cols, rows int, err error) {
	if cellSize <= 0 {
		return 0, 0, fmt.Errorf("field: non-positive cell size %v", cellSize)
	}
	if cellSize > fieldRect.Width() || cellSize > fieldRect.Height() {
		return 0, 0, fmt.Errorf("field: cell size %v too large for field %vx%v",
			cellSize, fieldRect.Width(), fieldRect.Height())
	}
	cols = int(math.Ceil(fieldRect.Width()/cellSize - dimEps))
	rows = int(math.Ceil(fieldRect.Height()/cellSize - dimEps))
	return cols, rows, nil
}

// Divide performs the approximate grid division of Sec. 4.3 with square
// cells of the given size. Cell centres follow Fig. 6(b): the bottom-left
// cell centre is the origin corner plus half a cell; the grid has
// ⌈extent/cellSize⌉ cells per axis, so for non-dividing cell sizes the
// last row/column overhangs the field (the field is always fully
// covered). The signature pass is fanned across runtime.NumCPU() workers;
// the result is identical for every worker count (see DivideWorkers).
func Divide(fieldRect geom.Rect, classifier PairClassifier, cellSize float64) (*Division, error) {
	return DivideWorkers(fieldRect, classifier, cellSize, runtime.NumCPU())
}

// DivideWorkers is Divide with an explicit worker count for the signature
// pass (≤ 1 selects the serial path). The division is deterministic and
// byte-identical for every worker count: face IDs follow the row-major
// first-appearance order of the serial scan — row shards are merged in
// shard order, and a shard's local first appearances are already in
// row-major order, so the concatenation reproduces the global scan order
// exactly — and centroids are accumulated in a separate serial row-major
// pass so float summation order never depends on the sharding. The
// classifier must be safe for concurrent reads (RatioClassifier is).
func DivideWorkers(fieldRect geom.Rect, classifier PairClassifier, cellSize float64, workers int) (*Division, error) {
	cols, rows, err := gridDims(fieldRect, cellSize)
	if err != nil {
		return nil, err
	}

	d := &Division{
		Field:    fieldRect,
		CellSize: cellSize,
		Cols:     cols,
		Rows:     rows,
		cellFace: make([]int, cols*rows),
		bySig:    make(map[string]int),
	}

	// Pass 1: signature per cell; group into faces.
	var accums []*faceAccum
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		accums = d.signaturePassSerial(classifier)
	} else {
		accums = d.signaturePassParallel(classifier, workers)
	}

	// Pass 2: centroid accumulation, always serial and row-major so the
	// floating-point summation order is independent of the worker count.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			accums[d.cellFace[r*cols+c]].add(d.CellCenter(c, r))
		}
	}
	d.finalizeFaces(accums)
	return d, nil
}

// signaturePassSerial fills cellFace and bySig in one row-major scan,
// reusing a scratch vector and distance buffer across cells (a signature
// is only cloned when it starts a new face).
func (d *Division) signaturePassSerial(classifier PairClassifier) []*faceAccum {
	var accums []*faceAccum
	scratch := vector.New(classifier.NumNodes())
	var dists []float64
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			dists = signatureInto(classifier, d.CellCenter(c, r), scratch, dists)
			key := scratch.Key()
			id, ok := d.bySig[key]
			if !ok {
				id = len(accums)
				d.bySig[key] = id
				accums = append(accums, &faceAccum{sig: scratch.Clone()})
			}
			d.cellFace[r*d.Cols+c] = id
		}
	}
	return accums
}

// divideShard is one worker's slice of the signature pass: a contiguous
// band of rows plus the shard-local face table in first-appearance order.
type divideShard struct {
	startRow, endRow int
	sigs             []vector.Vector
	keys             []string
}

// signaturePassParallel shards the rows across workers. Each worker
// classifies its band into shard-local face IDs (written into the
// worker's disjoint region of cellFace); the shards are then merged in
// order, assigning global IDs by first appearance and remapping the
// raster.
func (d *Division) signaturePassParallel(classifier PairClassifier, workers int) []*faceAccum {
	shards := make([]divideShard, workers)
	base, extra := d.Rows/workers, d.Rows%workers
	row := 0
	for s := range shards {
		h := base
		if s < extra {
			h++
		}
		shards[s].startRow, shards[s].endRow = row, row+h
		row += h
	}

	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(sh *divideShard) {
			defer wg.Done()
			local := make(map[string]int)
			scratch := vector.New(classifier.NumNodes())
			var dists []float64
			for r := sh.startRow; r < sh.endRow; r++ {
				for c := 0; c < d.Cols; c++ {
					dists = signatureInto(classifier, d.CellCenter(c, r), scratch, dists)
					key := scratch.Key()
					id, ok := local[key]
					if !ok {
						id = len(sh.sigs)
						local[key] = id
						sh.sigs = append(sh.sigs, scratch.Clone())
						sh.keys = append(sh.keys, key)
					}
					d.cellFace[r*d.Cols+c] = id // shard-local; remapped below
				}
			}
		}(&shards[s])
	}
	wg.Wait()

	var accums []*faceAccum
	for s := range shards {
		sh := &shards[s]
		remap := make([]int, len(sh.sigs))
		for li, key := range sh.keys {
			gid, ok := d.bySig[key]
			if !ok {
				gid = len(accums)
				d.bySig[key] = gid
				accums = append(accums, &faceAccum{sig: sh.sigs[li]})
			}
			remap[li] = gid
		}
		for ci := sh.startRow * d.Cols; ci < sh.endRow*d.Cols; ci++ {
			d.cellFace[ci] = remap[d.cellFace[ci]]
		}
	}
	return accums
}

// faceAccum accumulates one face's cells during division.
type faceAccum struct {
	sig   vector.Vector
	sumX  float64
	sumY  float64
	cells int
}

func (a *faceAccum) add(center geom.Point) {
	a.sumX += center.X
	a.sumY += center.Y
	a.cells++
}

// finalizeFaces builds the Face records from the accumulated cells and
// the filled cellFace raster: neighbor links from 4-connected adjacency,
// per-link signature diffs (Theorem 1 machinery), and centroids (eq. 5).
func (d *Division) finalizeFaces(accums []*faceAccum) {
	neighborSet := make([]map[int]struct{}, len(accums))
	for i := range neighborSet {
		neighborSet[i] = make(map[int]struct{})
	}
	link := func(a, b int) {
		if a != b {
			neighborSet[a][b] = struct{}{}
			neighborSet[b][a] = struct{}{}
		}
	}
	for r := 0; r < d.Rows; r++ {
		for c := 0; c < d.Cols; c++ {
			id := d.cellFace[r*d.Cols+c]
			if c+1 < d.Cols {
				link(id, d.cellFace[r*d.Cols+c+1])
			}
			if r+1 < d.Rows {
				link(id, d.cellFace[(r+1)*d.Cols+c])
			}
		}
	}
	d.Faces = make([]Face, len(accums))
	for id, a := range accums {
		nbrs := make([]int, 0, len(neighborSet[id]))
		for nb := range neighborSet[id] {
			nbrs = append(nbrs, nb)
		}
		sort.Ints(nbrs)
		diffs := make([][]int, len(nbrs))
		for ni, nb := range nbrs {
			diffs[ni] = signatureDiff(a.sig, accums[nb].sig)
		}
		d.Faces[id] = Face{
			ID:            id,
			Signature:     a.sig,
			Centroid:      geom.Pt(a.sumX/float64(a.cells), a.sumY/float64(a.cells)),
			Cells:         a.cells,
			Neighbors:     nbrs,
			NeighborDiffs: diffs,
		}
	}
	d.soa = buildSigSoA(d.Faces)
}

// signatureDiff returns the component indices where a and b differ.
func signatureDiff(a, b vector.Vector) []int {
	var out []int
	for k := range a {
		if a[k] != b[k] {
			out = append(out, k)
		}
	}
	return out
}

// CellCenter returns the centre of the cell at column c, row r.
func (d *Division) CellCenter(c, r int) geom.Point {
	return geom.Pt(
		d.Field.Min.X+(float64(c)+0.5)*d.CellSize,
		d.Field.Min.Y+(float64(r)+0.5)*d.CellSize,
	)
}

// CellOf returns the grid cell containing p, clamped to the grid.
func (d *Division) CellOf(p geom.Point) (c, r int) {
	c = int((p.X - d.Field.Min.X) / d.CellSize)
	r = int((p.Y - d.Field.Min.Y) / d.CellSize)
	if c < 0 {
		c = 0
	}
	if c >= d.Cols {
		c = d.Cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= d.Rows {
		r = d.Rows - 1
	}
	return c, r
}

// FaceAt returns the face containing the point p (by its grid cell).
func (d *Division) FaceAt(p geom.Point) *Face {
	c, r := d.CellOf(p)
	return &d.Faces[d.cellFace[r*d.Cols+c]]
}

// NumFaces returns the number of distinct faces.
func (d *Division) NumFaces() int { return len(d.Faces) }

// MeanFaceArea returns the average face area in m².
func (d *Division) MeanFaceArea() float64 {
	if len(d.Faces) == 0 {
		return 0
	}
	return d.Field.Area() / float64(len(d.Faces))
}

// NeighborLinkCount returns the total number of undirected neighbor links
// |L| (Sec. 4.4: O(n⁴) like the face count).
func (d *Division) NeighborLinkCount() int {
	total := 0
	for _, f := range d.Faces {
		total += len(f.Neighbors)
	}
	return total / 2
}

// UncertainFraction returns the fraction of grid cells whose signature has
// at least one Flipped component — an estimate of how much of the field
// lies in some pair's uncertain area (Fig. 3's shrinking certain faces).
func (d *Division) UncertainFraction() float64 {
	if d.Cols*d.Rows == 0 {
		return 0
	}
	cells := 0
	for _, f := range d.Faces {
		if f.Signature.CountFlipped() > 0 {
			cells += f.Cells
		}
	}
	return float64(cells) / float64(d.Cols*d.Rows)
}
