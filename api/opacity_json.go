package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// OpacityResponse carries one row per vertex-pair type: thousands of
// rows for a few-thousand-vertex graph, a body of hundreds of KB. Its
// codec below writes and reads that body without reflection. The
// encoder produces exactly the bytes json.Marshal produces for the
// fields. The decoder parses exactly that canonical form in one pass
// and hands any other spelling to encoding/json, so every valid
// document decodes as it always has.

// opacityResponseFields is OpacityResponse without its methods, for
// encoding/json: the fallback decoder and the reference the codec must
// match.
type opacityResponseFields OpacityResponse

// MarshalJSON encodes r compactly, with its fields in declaration
// order, byte for byte as json.Marshal encodes opacityResponseFields.
// A NaN or infinite opacity is an error, as it is for json.Marshal.
func (r OpacityResponse) MarshalJSON() ([]byte, error) {
	// Presized to within a few bytes a row, since the server's result
	// cache keeps the buffer.
	size := len(`{"l":,"max_opacity":,"types":[]}`) + intLen(r.L) + floatLen(r.MaxOpacity)
	for _, t := range r.Types {
		size += len(`{"label":"","within":,"total":,"opacity":},`) + len(t.Label) +
			intLen(t.Within) + intLen(t.Total) + floatLen(t.Opacity)
	}
	b := make([]byte, 0, size)
	b = append(b, `{"l":`...)
	b = strconv.AppendInt(b, int64(r.L), 10)
	b = append(b, `,"max_opacity":`...)
	b, err := appendFloat(b, r.MaxOpacity)
	if err != nil {
		return nil, err
	}
	if r.Types == nil {
		return append(b, `,"types":null}`...), nil
	}
	b = append(b, `,"types":[`...)
	for i, t := range r.Types {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"label":`...)
		b = appendString(b, t.Label)
		b = append(b, `,"within":`...)
		b = strconv.AppendInt(b, int64(t.Within), 10)
		b = append(b, `,"total":`...)
		b = strconv.AppendInt(b, int64(t.Total), 10)
		b = append(b, `,"opacity":`...)
		if b, err = appendFloat(b, t.Opacity); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// intLen returns the length of x in decimal.
func intLen(x int) int {
	n := 1
	if x < 0 {
		n++
	}
	for ; x >= 10 || x <= -10; x /= 10 {
		n++
	}
	return n
}

// floatLen estimates the length appendFloat writes for f: 1 for 0 and
// 1, the commonest opacities, and otherwise the longest form it writes,
// as in -0.0000012345678901234567.
func floatLen(f float64) int {
	if f == 0 || f == 1 {
		return 1
	}
	return 25
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest round-tripping decimal, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// plainByte reports whether c stands for itself inside a JSON string
// both ways: encoding/json writes it unescaped and reads it back as is.
// That is printable ASCII other than the quote, the backslash and the
// three HTML characters json.Marshal escapes.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string. A label of plain bytes, the
// usual case, is copied as is; any other goes through json.Marshal,
// which escapes and repairs it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON decodes data into r. The canonical form MarshalJSON
// writes, with optional surrounding whitespace and labels of plain
// bytes, is parsed directly into a fresh value that replaces *r only on
// success. Anything else is decoded by encoding/json, with its usual
// rules for key case, order, duplicates, escapes and unknown keys.
func (r *OpacityResponse) UnmarshalJSON(data []byte) error {
	if v, ok := parseOpacityResponse(data); ok {
		*r = v
		return nil
	}
	return json.Unmarshal(data, (*opacityResponseFields)(r))
}

// parseOpacityResponse parses the canonical form; ok is false for any
// other input, valid or not.
func parseOpacityResponse(data []byte) (v OpacityResponse, ok bool) {
	p := canonParser{b: bytes.TrimRight(bytes.TrimLeft(data, " \t\r\n"), " \t\r\n")}
	if !(p.lit(`{"l":`) && p.int(&v.L) &&
		p.lit(`,"max_opacity":`) && p.float(&v.MaxOpacity) &&
		p.lit(`,"types":`)) {
		return v, false
	}
	if !p.lit("null") {
		if !p.lit("[") {
			return v, false
		}
		v.Types = make([]OpacityType, 0, bytes.Count(p.b[p.pos:], []byte(`{"label":`)))
		for !p.lit("]") {
			if len(v.Types) > 0 && !p.lit(",") {
				return v, false
			}
			var t OpacityType
			if !(p.lit(`{"label":`) && p.str(&t.Label) &&
				p.lit(`,"within":`) && p.int(&t.Within) &&
				p.lit(`,"total":`) && p.int(&t.Total) &&
				p.lit(`,"opacity":`) && p.float(&t.Opacity) &&
				p.lit("}")) {
				return v, false
			}
			v.Types = append(v.Types, t)
		}
	}
	return v, p.lit("}") && p.pos == len(p.b)
}

// canonParser reads the canonical opacity document left to right;
// each method consumes one token and reports whether it was there.
type canonParser struct {
	b   []byte
	pos int
}

// lit consumes the literal s.
func (p *canonParser) lit(s string) bool {
	b := p.b[p.pos:]
	if len(b) < len(s) {
		return false
	}
	for i := 0; i < len(s); i++ { // shorter than a call to memequal
		if b[i] != s[i] {
			return false
		}
	}
	p.pos += len(s)
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (p *canonParser) digits() int {
	b, i := p.b, p.pos
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	n := i - p.pos
	p.pos = i
	return n
}

// int consumes a JSON integer of at most 18 digits, which int64 always
// holds; a longer one is left to encoding/json's range check. A
// fraction or exponent after it fails the next literal.
func (p *canonParser) int(dst *int) bool {
	neg := p.lit("-")
	start := p.pos
	n := p.digits()
	if n == 0 || n > 18 || (n > 1 && p.b[start] == '0') {
		return false
	}
	x := 0
	for _, c := range p.b[start:p.pos] {
		x = x*10 + int(c-'0')
	}
	if neg {
		x = -x
	}
	*dst = x
	return true
}

// float consumes a number in JSON's grammar and converts it as
// encoding/json does; a value out of float64's range fails.
func (p *canonParser) float(dst *float64) bool {
	start := p.pos
	p.lit("-")
	first := p.pos
	if n := p.digits(); n == 0 || (n > 1 && p.b[first] == '0') {
		return false
	}
	if p.lit(".") && p.digits() == 0 {
		return false
	}
	if p.lit("e") || p.lit("E") {
		if !p.lit("+") {
			p.lit("-")
		}
		if p.digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.pos]), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// str consumes a JSON string of plain bytes, which decodes to itself.
func (p *canonParser) str(dst *string) bool {
	if !p.lit(`"`) {
		return false
	}
	start := p.pos
	for p.pos < len(p.b) && plainByte(p.b[p.pos]) {
		p.pos++
	}
	end := p.pos
	if !p.lit(`"`) {
		return false
	}
	*dst = string(p.b[start:end])
	return true
}
