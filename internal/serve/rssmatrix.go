package serve

import (
	"bytes"
	"fmt"
	"strconv"
)

// RSSMatrix is the k×n RSS matrix of a report body (Def. 3): one row per
// sampling instant, one column per node. It is a [][]float64 underneath,
// so it converts to and from the sampling layer's matrix freely, and it
// encodes like one.
//
// Its decoder replaces encoding/json's reflective walk — the dominant
// program-side cost of report ingestion — with a direct parse: every
// value lands in one backing array sized by counting the body's commas,
// and each row is a full-slice-expression view of it (so appending to a
// row can never overwrite the next). A body costs two allocations
// however many rows it has.
//
// It accepts and rejects exactly what encoding/json does for a
// [][]float64 (FuzzRSSMatrixDecode pins the equivalence): a null matrix
// decodes to nil, a null row to a nil row, a null element to 0, and
// numbers follow the RFC 8259 grammar with strconv.ParseFloat's value
// and range check. Anything else — strings, bools, objects, deeper
// nesting, leading zeros — is an error.
type RSSMatrix [][]float64

// UnmarshalJSON implements json.Unmarshaler. It validates its input
// itself, so it fails closed on malformed bytes even when called
// directly rather than through encoding/json.
func (m *RSSMatrix) UnmarshalJSON(data []byte) error {
	p := rssParser{data: data}
	p.space()
	if p.null() {
		if p.space(); p.i != len(data) {
			return p.fail("trailing data")
		}
		*m = nil
		return nil
	}
	// Every value but the first of the body follows a comma, and every
	// row but the outer array opens with a bracket: both counts are
	// upper bounds, so neither slice ever grows.
	p.flat = make([]float64, 0, 1+bytes.Count(data, []byte{','}))
	out := make([][]float64, 0, max(0, bytes.Count(data, []byte{'['})-1))
	err := p.list(func() error {
		row, err := p.row()
		out = append(out, row)
		return err
	})
	if err != nil {
		return err
	}
	if p.space(); p.i != len(data) {
		return p.fail("trailing data")
	}
	*m = out
	return nil
}

// rssParser is the RSSMatrix decoder's cursor over one body.
type rssParser struct {
	data []byte
	i    int
	flat []float64
}

func (p *rssParser) fail(msg string) error {
	return fmt.Errorf("serve: rss matrix at offset %d: %s", p.i, msg)
}

// space skips JSON whitespace.
func (p *rssParser) space() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// take consumes c if it is next.
func (p *rssParser) take(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal if it is next.
func (p *rssParser) null() bool {
	if bytes.HasPrefix(p.data[p.i:], []byte("null")) {
		p.i += 4
		return true
	}
	return false
}

// list parses an array, which must come next, calling elem once per
// element with the cursor on the element's first byte.
func (p *rssParser) list(elem func() error) error {
	if !p.take('[') {
		return p.fail("want '['")
	}
	if p.space(); p.take(']') {
		return nil
	}
	for {
		p.space()
		if err := elem(); err != nil {
			return err
		}
		p.space()
		if p.take(']') {
			return nil
		}
		if !p.take(',') {
			return p.fail("want ',' or ']'")
		}
	}
}

// row parses one row (an array of numbers, or null) into a view of the
// shared backing array.
func (p *rssParser) row() ([]float64, error) {
	if p.null() {
		return nil, nil
	}
	start := len(p.flat)
	err := p.list(func() error {
		v, err := p.value()
		p.flat = append(p.flat, v)
		return err
	})
	end := len(p.flat)
	return p.flat[start:end:end], err
}

// value parses one element: an RFC 8259 number, or null (which, as in
// encoding/json, leaves the float64 at zero).
func (p *rssParser) value() (float64, error) {
	if p.null() {
		return 0, nil
	}
	start := p.i
	p.take('-')
	switch {
	case p.take('0'):
	case p.digits() == 0:
		return 0, p.fail("want a number")
	}
	if p.take('.') && p.digits() == 0 {
		return 0, p.fail("want a digit after '.'")
	}
	if p.take('e') || p.take('E') {
		if !p.take('+') {
			p.take('-')
		}
		if p.digits() == 0 {
			return 0, p.fail("want a digit in the exponent")
		}
	}
	num := string(p.data[start:p.i])
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, p.fail("number " + num + " out of float64 range")
	}
	return v, nil
}

// digits consumes a run of decimal digits and returns its length.
func (p *rssParser) digits() int {
	start := p.i
	for p.i < len(p.data) && p.data[p.i] >= '0' && p.data[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}
