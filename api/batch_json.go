package api

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// BatchResponse crosses every hop of POST /v1/batch: lopserve encodes
// it, loprouter decodes each sub-batch and encodes the merged answer,
// and the client decodes that. Each item's Result already holds
// compact JSON, so the codec below copies it verbatim after one
// validating scan instead of letting encoding/json re-compact it. The
// encoder produces exactly the bytes json.Marshal produces for the
// fields, errors included. The decoder parses exactly that canonical
// form in one pass and hands any other spelling to encoding/json, so
// every valid document decodes as it always has.

// batchResponseFields is BatchResponse without its methods, for
// encoding/json: the fallback codec and the reference the codec must
// match.
type batchResponseFields BatchResponse

// MarshalJSON encodes r compactly, with its fields in declaration
// order, byte for byte as json.Marshal encodes batchResponseFields.
// A Result that is not valid and plain (see scanPlain) sends the whole
// value through json.Marshal, which compacts and escapes it, or fails
// on it.
func (r BatchResponse) MarshalJSON() ([]byte, error) {
	size := len(`{"results":null,"succeeded":,"failed":}`) + intLen(r.Succeeded) + intLen(r.Failed)
	for _, it := range r.Results {
		if len(it.Result) > 0 {
			if end, ok := scanPlain(it.Result, 0); !ok || end != len(it.Result) {
				return json.Marshal(batchResponseFields(r))
			}
		}
		size += len(`{"index":,"op":"","status":,"cache_hit":true,"result":},`) +
			intLen(it.Index) + len(it.Op) + intLen(it.Status) + len(it.Result)
		if it.Error != nil {
			size += len(`,"error":{"code":"","message":""}`) + len(it.Error.Code) + len(it.Error.Message)
		}
	}
	b := make([]byte, 0, size)
	if r.Results == nil {
		b = append(b, `{"results":null`...)
	} else {
		b = append(b, `{"results":[`...)
		for i, it := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(it.Index), 10)
			b = append(b, `,"op":`...)
			b = appendString(b, it.Op)
			b = append(b, `,"status":`...)
			b = strconv.AppendInt(b, int64(it.Status), 10)
			if it.CacheHit {
				b = append(b, `,"cache_hit":true`...)
			}
			if len(it.Result) > 0 {
				b = append(b, `,"result":`...)
				b = append(b, it.Result...)
			}
			if it.Error != nil {
				e, err := json.Marshal(it.Error)
				if err != nil {
					return json.Marshal(batchResponseFields(r)) // the same error, reported as encoding/json reports it
				}
				b = append(b, `,"error":`...)
				b = append(b, e...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"succeeded":`...)
	b = strconv.AppendInt(b, int64(r.Succeeded), 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, int64(r.Failed), 10)
	return append(b, '}'), nil
}

// UnmarshalJSON decodes data into r. The canonical form MarshalJSON
// writes, with optional surrounding whitespace, ops of plain bytes and
// plain results, is parsed directly into a fresh value that replaces
// *r only on success. Anything else is decoded by encoding/json, with
// its usual rules for key case, order, duplicates, escapes and unknown
// keys. So is a document decoded into Results that already has
// capacity: encoding/json decodes items into the existing elements,
// keeping the fields an item leaves out, which a fresh value would not.
func (r *BatchResponse) UnmarshalJSON(data []byte) error {
	if cap(r.Results) == 0 {
		if v, ok := parseBatchResponse(data); ok {
			*r = v
			return nil
		}
	}
	return json.Unmarshal(data, (*batchResponseFields)(r))
}

// parseBatchResponse parses the canonical form; ok is false for any
// other input, valid or not. The results are sliced out of one copy of
// data, as the json.Unmarshaler contract asks.
func parseBatchResponse(data []byte) (v BatchResponse, ok bool) {
	p := canonParser{b: bytes.Clone(bytes.TrimRight(bytes.TrimLeft(data, " \t\r\n"), " \t\r\n"))}
	if !p.lit(`{"results":`) {
		return v, false
	}
	if !p.lit("null") {
		if !p.lit("[") {
			return v, false
		}
		v.Results = []BatchItemResult{}
		for !p.lit("]") {
			if len(v.Results) > 0 && !p.lit(",") {
				return v, false
			}
			var it BatchItemResult
			if !(p.lit(`{"index":`) && p.int(&it.Index) &&
				p.lit(`,"op":`) && p.str(&it.Op) &&
				p.lit(`,"status":`) && p.int(&it.Status)) {
				return v, false
			}
			it.CacheHit = p.lit(`,"cache_hit":true`)
			if p.lit(`,"result":`) && !p.value((*[]byte)(&it.Result)) {
				return v, false
			}
			if p.lit(`,"error":`) {
				var e []byte
				if !p.value(&e) || json.Unmarshal(e, &it.Error) != nil {
					return v, false
				}
			}
			if !p.lit("}") {
				return v, false
			}
			v.Results = append(v.Results, it)
		}
	}
	return v, p.lit(`,"succeeded":`) && p.int(&v.Succeeded) &&
		p.lit(`,"failed":`) && p.int(&v.Failed) &&
		p.lit("}") && p.pos == len(p.b)
}

// value consumes one valid, plain JSON value and slices it, capacity
// capped so an append to it cannot overwrite what follows.
func (p *canonParser) value(dst *[]byte) bool {
	end, ok := scanPlain(p.b, p.pos)
	if !ok {
		return false
	}
	*dst = p.b[p.pos:end:end]
	p.pos = end
	return true
}

// maxDepth bounds the nesting scanPlain follows. A deeper value is
// left to encoding/json, whose own limit is 10000; an opacity answer
// nests three deep.
const maxDepth = 64

// plainInString marks the bytes that scanPlain passes over inside a
// string without a second look: those that are valid there and that
// encoding/json's compact-and-escape copies as is. The rest are the
// quote, the backslash, control bytes, '<', '>', '&', and 0xE2, which
// may begin U+2028 or U+2029.
var plainInString = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' && c != 0xE2
	}
	return t
}()

// scanPlain reads the JSON value that starts at b[i] and returns where
// it ends. ok reports that the value is valid and plain: no
// insignificant whitespace, no more than maxDepth levels of nesting,
// and no '<', '>', '&', U+2028 or U+2029, which encoding/json's
// compact-and-escape rewrites. A plain value therefore encodes as
// itself, and decodes into a json.RawMessage as itself. The scan keeps
// its open containers on a fixed stack rather than recursing.
func scanPlain(b []byte, i int) (end int, ok bool) {
	var stack [maxDepth]byte // the closing byte of each open container
	depth := 0
	for {
		// A value starts at b[i]; i is -1 if the key before it failed.
		if uint(i) >= uint(len(b)) {
			return 0, false
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return 0, false
			}
			closer := c + 2 // '{'+2 is '}', '['+2 is ']'
			if i++; i < len(b) && b[i] == closer {
				i++
				break
			}
			stack[depth] = closer
			depth++
			if c == '{' {
				i = scanKey(b, i)
			}
			continue
		case '"':
			i = scanString(b, i)
		case 't':
			i = scanLit(b, i, "true")
		case 'f':
			i = scanLit(b, i, "false")
		case 'n':
			i = scanLit(b, i, "null")
		default:
			i = scanNumber(b, i)
		}
		// A value ended at b[i]: close containers until a comma
		// separates the next value, or the outermost one is done.
		for {
			if i < 0 {
				return 0, false
			}
			if depth == 0 {
				return i, true
			}
			if i >= len(b) {
				return 0, false
			}
			if b[i] == stack[depth-1] {
				depth--
				i++
				continue
			}
			if b[i] != ',' {
				return 0, false
			}
			i++
			if stack[depth-1] == '}' {
				i = scanKey(b, i)
			}
			break
		}
	}
}

// The scanners below each consume one token starting at b[i] and
// return the index after it, or -1 if the token is not there, is
// invalid or is not plain.

// scanKey consumes an object key and its colon.
func scanKey(b []byte, i int) int {
	if i < 0 || i >= len(b) || b[i] != '"' {
		return -1
	}
	if i = scanString(b, i); i < 0 || i >= len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// scanString consumes the plain string whose quote is at b[i].
func scanString(b []byte, i int) int {
	for i++; i < len(b); {
		if plainInString[b[i]] {
			i++
			continue
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i+1 >= len(b) {
				return -1
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
					return -1
				}
				i += 6
			default:
				return -1
			}
		case 0xE2:
			if i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				return -1 // U+2028 or U+2029
			}
			i++
		default:
			return -1 // a control byte, '<', '>' or '&'
		}
	}
	return -1
}

func isHex(c byte) bool {
	return c-'0' < 10 || (c|0x20)-'a' < 6
}

// scanLit consumes the literal s.
func scanLit(b []byte, i int, s string) int {
	if len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return -1
	}
	return i + len(s)
}

// scanNumber consumes a number in JSON's grammar.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = scanDigits(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = scanDigits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		return scanDigits(b, i)
	}
	return i
}

// scanDigits consumes one or more decimal digits.
func scanDigits(b []byte, i int) int {
	start := i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	if i == start {
		return -1
	}
	return i
}
