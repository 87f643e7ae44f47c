package field

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/randx"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	orig, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumFaces() != orig.NumFaces() {
		t.Fatalf("faces %d != %d", loaded.NumFaces(), orig.NumFaces())
	}
	if loaded.Cols != orig.Cols || loaded.Rows != orig.Rows || loaded.CellSize != orig.CellSize {
		t.Fatal("raster header mismatch")
	}
	if loaded.Field != orig.Field {
		t.Fatal("field rect mismatch")
	}
	// Spot checks: FaceAt and FaceBySignature behave identically.
	rng := randx.New(1)
	for trial := 0; trial < 200; trial++ {
		p := loaded.CellCenter(rng.Intn(loaded.Cols), rng.Intn(loaded.Rows))
		fo, fl := orig.FaceAt(p), loaded.FaceAt(p)
		if fo.ID != fl.ID {
			t.Fatalf("FaceAt(%v) differs: %d vs %d", p, fo.ID, fl.ID)
		}
		if !slices.Equal(fo.Signature, fl.Signature) {
			t.Fatalf("signature differs at %v", p)
		}
		if !fo.Centroid.Eq(fl.Centroid) {
			t.Fatalf("centroid differs at %v", p)
		}
	}
	for _, f := range orig.Faces[:10] {
		got := loaded.FaceBySignature(f.Signature)
		if got == nil || got.ID != f.ID {
			t.Fatalf("FaceBySignature broken for face %d", f.ID)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 5)
	var buf bytes.Buffer
	if err := div.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncated stream.
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("truncated stream should fail")
	}
	// Garbage.
	if _, err := Load(bytes.NewReader([]byte("not a division"))); err == nil {
		t.Error("garbage should fail")
	}
	// Empty.
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail")
	}
}

func TestLoadValidatesInvariants(t *testing.T) {
	rc := gridClassifier(t, 4, defaultC())
	div, _ := Divide(fieldRect, rc, 5)

	// Break a neighbor link and reserialize through the snapshot path by
	// mutating then saving.
	div.Faces[0].Neighbors = append(div.Faces[0].Neighbors, 99999)
	var buf bytes.Buffer
	if err := div.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("invalid neighbor should fail validation")
	}
}

// TestSaveLoadRoundTripProperty is the persistence property the
// fieldcache disk spill rests on: across seeded random deployments and
// cell sizes, a reloaded division re-serializes to the exact bytes of
// the original (so every derived structure — faces, centroids,
// neighbors, diffs, raster — survived intact) and localizes every grid
// cell to the same face.
func TestSaveLoadRoundTripProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) {
			rng := randx.New(uint64(10 + trial))
			n := 6 + trial*2
			cell := []float64{2, 2.5, 4}[trial%3]
			nodes := deploy.Random(fieldRect, n, rng.Split("deploy")).Positions()
			spec := Spec{Field: fieldRect, Nodes: nodes, C: defaultC(), CellSize: cell, Workers: 1}
			orig, err := spec.Divide()
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := orig.Save(&first); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := loaded.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("reloaded division re-serializes differently")
			}
			for r := 0; r < orig.Rows; r++ {
				for c := 0; c < orig.Cols; c++ {
					p := orig.CellCenter(c, r)
					if orig.FaceAt(p).ID != loaded.FaceAt(p).ID {
						t.Fatalf("cell (%d,%d) localizes to different faces", c, r)
					}
				}
			}
		})
	}
}

// TestLoadRejectsDuplicateSignatures pins the corruption check: a
// stream in which two faces carry the same signature must be rejected,
// not silently collapsed last-wins in the signature index.
func TestLoadRejectsDuplicateSignatures(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	div, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if div.NumFaces() < 2 {
		t.Fatal("fixture needs at least 2 faces")
	}
	// Forge the corruption through the snapshot path: give face 1 face
	// 0's signature and reserialize.
	div.Faces[1].Signature = div.Faces[0].Signature.Clone()
	var buf bytes.Buffer
	if err := div.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf)
	if err == nil {
		t.Fatal("duplicate face signatures must fail Load")
	}
	if !strings.Contains(err.Error(), "share a signature") {
		t.Fatalf("want duplicate-signature error, got: %v", err)
	}
}

func TestSaveLoadPreservesMatching(t *testing.T) {
	// The real adoption test: a tracker built on the loaded division
	// matches identically to one built on the original.
	rc := gridClassifier(t, 9, defaultC())
	orig, _ := Divide(fieldRect, rc, 2)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(2)
	for trial := 0; trial < 50; trial++ {
		p := orig.CellCenter(rng.Intn(orig.Cols), rng.Intn(orig.Rows))
		sig := orig.FaceAt(p).Signature
		a := orig.FaceBySignature(sig)
		b := loaded.FaceBySignature(sig)
		if a == nil || b == nil || a.ID != b.ID {
			t.Fatal("signature lookup differs after round trip")
		}
	}
}
