package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// rssCorpus is the shared seed set of the RSSMatrix decoder tests: the
// shapes reports take, and every class of input encoding/json rejects
// for a [][]float64.
var rssCorpus = []string{
	`null`, ` null `, `[]`, `[ ]`, `[[]]`, `[null]`, `[[], null, [1]]`,
	`[[-63.25, -70.5], [-64, -71.125]]`, "\t[ [ 1 ,2 ] ,\n[3]\r]",
	`[[0, -0, 0.5, -0.0, 1e5, 1E-5, 2.5e+3, 123456789012345678901234567890]]`,
	`[[1e308], [-1e308], [4.9e-324], [1e-400]]`,
	`[[null, 1, null]]`,
	// rejected
	``, ` `, `[`, `]`, `[[1]`, `[[1]]]`, `[[1],]`, `[,[1]]`, `[[1,]]`, `[[,1]]`, `[[1 2]]`, `[[1][2]]`,
	`[1]`, `1`, `"x"`, `true`, `{}`, `[{}]`, `[[{}]]`, `[["1"]]`, `[[true]]`, `[[false]]`,
	`[[[1]]]`, `[[01]]`, `[[-01]]`, `[[1.]]`, `[[.5]]`, `[[1e]]`, `[[1e+]]`, `[[+1]]`, `[[-]]`,
	`[[NaN]]`, `[[Infinity]]`, `[[0x10]]`, `[[1_000]]`, `[[1e400]]`, `[[-1e400]]`, `[[nul]]`, `[[nulll]]`,
	`[nul]`, `nul`, `nullx`, `[[1]] x`, `[[1]]]`, "[[1\x00]]", `[[1],[2]`,
}

// decodeBoth runs one input through RSSMatrix and through encoding/json
// into a plain [][]float64, both via json.Unmarshal.
func decodeBoth(data []byte) (got RSSMatrix, gotErr error, want [][]float64, wantErr error) {
	gotErr = json.Unmarshal(data, &got)
	wantErr = json.Unmarshal(data, &want)
	return
}

// sameMatrix reports whether a and b are equal down to nil-ness of the
// matrix and each row and to every value's bits (so -0 ≠ 0).
func sameMatrix(a RSSMatrix, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func checkRSSEquivalence(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr, want, wantErr := decodeBoth(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: RSSMatrix err = %v, encoding/json err = %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !sameMatrix(got, want) {
		t.Fatalf("%q: RSSMatrix decoded %#v, encoding/json %#v", data, [][]float64(got), want)
	}
	// A direct call must agree on acceptance too: encoding/json only
	// hands UnmarshalJSON syntactically valid JSON, so this is the
	// fail-closed check for raw bytes.
	var direct RSSMatrix
	if err := direct.UnmarshalJSON(data); (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: direct UnmarshalJSON err = %v, encoding/json err = %v", data, err, wantErr)
	} else if err == nil && !sameMatrix(direct, want) {
		t.Fatalf("%q: direct UnmarshalJSON decoded %#v, encoding/json %#v", data, [][]float64(direct), want)
	}
}

func TestRSSMatrixMatchesEncodingJSON(t *testing.T) {
	for _, in := range rssCorpus {
		checkRSSEquivalence(t, []byte(in))
	}
}

// TestRSSMatrixRowsAreIsolated pins the full-slice-expression views:
// growing one decoded row must not overwrite its neighbour in the shared
// backing array.
func TestRSSMatrixRowsAreIsolated(t *testing.T) {
	var m RSSMatrix
	if err := json.Unmarshal([]byte(`[[1,2],[3,4]]`), &m); err != nil {
		t.Fatal(err)
	}
	m[0] = append(m[0], 99)
	if m[1][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", m)
	}
}

// TestReportWireDecodesRSSMatrix checks the field inside the report
// body, where a rejected matrix must fail the whole decode.
func TestReportWireDecodesRSSMatrix(t *testing.T) {
	var rw ReportWire
	body := `{"target":"t","rss":[[-60.5,-70],[-61,-71.25]],"reported":[true,false]}`
	if err := json.Unmarshal([]byte(body), &rw); err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{-60.5, -70}, {-61, -71.25}}; !reflect.DeepEqual([][]float64(rw.RSS), want) {
		t.Fatalf("rss = %v, want %v", rw.RSS, want)
	}
	for _, bad := range []string{
		`{"target":"t","rss":[["x"]],"reported":[true]}`,
		`{"target":"t","rss":[[1e400]],"reported":[true]}`,
		`{"target":"t","rss":[[[1]]],"reported":[true]}`,
	} {
		if err := json.Unmarshal([]byte(bad), &rw); err == nil {
			t.Errorf("%s: decoded without error", bad)
		}
	}
}

// FuzzRSSMatrixDecode is the differential fuzz target for the report
// decoder: on any input, RSSMatrix and encoding/json's [][]float64 must
// both accept or both reject, and decode bit-identical matrices.
func FuzzRSSMatrixDecode(f *testing.F) {
	for _, in := range rssCorpus {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRSSEquivalence(t, data)
	})
}
