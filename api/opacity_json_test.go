package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/opacity"
)

// opacityValues are responses whose encoding must match json.Marshal's,
// the edge cases of its float and string rules included.
var opacityValues = map[string]OpacityResponse{
	"nil types":   {L: 2, MaxOpacity: 0.5},
	"empty types": {L: 2, MaxOpacity: 0.5, Types: []OpacityType{}},
	"rows": {L: 3, MaxOpacity: 1, Types: []OpacityType{
		{Label: "P{1,2}", Within: 3, Total: 4, Opacity: 0.75},
		{Label: "P{2,2}", Within: 0, Total: 1, Opacity: 0},
	}},
	"exponent floats": {L: 1, MaxOpacity: 1e21, Types: []OpacityType{
		{Label: "a", Opacity: 1e-7}, {Label: "b", Opacity: 9.99e20},
		{Label: "c", Opacity: 1e-6}, {Label: "d", Opacity: -1e-7},
		{Label: "e", Opacity: math.SmallestNonzeroFloat64}, {Label: "f", Opacity: math.MaxFloat64},
		{Label: "g", Opacity: math.Copysign(0, -1)}, {Label: "h", Opacity: 1.0 / 3},
	}},
	"extreme ints": {L: math.MinInt64, Types: []OpacityType{
		{Label: "x", Within: math.MaxInt64, Total: -1},
	}},
	"html label":     {Types: []OpacityType{{Label: "a<b"}, {Label: "a>b"}, {Label: "a&b"}}},
	"quote label":    {Types: []OpacityType{{Label: `say "hi"`}}},
	"backslash":      {Types: []OpacityType{{Label: `a\b`}}},
	"control bytes":  {Types: []OpacityType{{Label: "\x00\t\n\x1f\x7f"}}},
	"invalid utf-8":  {Types: []OpacityType{{Label: "a\xffb\xc3"}}},
	"line separator": {Types: []OpacityType{{Label: "a\u2028b\u2029c"}}},
	"non-ascii":      {Types: []OpacityType{{Label: "é{1,2}"}}},
	"empty label":    {Types: []OpacityType{{Label: ""}}},
}

// opacityDocs are documents the decoder must read exactly as
// encoding/json does, or reject exactly when it does.
var opacityDocs = map[string]string{
	"canonical":           `{"l":2,"max_opacity":0.5,"types":[{"label":"P{1,2}","within":1,"total":2,"opacity":0.5}]}`,
	"null types":          `{"l":2,"max_opacity":0.5,"types":null}`,
	"empty types":         `{"l":2,"max_opacity":0.5,"types":[]}`,
	"exponent floats":     `{"l":2,"max_opacity":1e21,"types":[{"label":"a","within":0,"total":1,"opacity":1e-7},{"label":"b","within":0,"total":1,"opacity":1E+2}]}`,
	"float out of range":  `{"l":2,"max_opacity":1e400,"types":null}`,
	"float underflow":     `{"l":2,"max_opacity":1e-400,"types":null}`,
	"NaN":                 `{"l":2,"max_opacity":NaN,"types":null}`,
	"leading zero":        `{"l":02,"max_opacity":0.5,"types":null}`,
	"fractional int":      `{"l":2.0,"max_opacity":0.5,"types":null}`,
	"exponent int":        `{"l":2e1,"max_opacity":0.5,"types":null}`,
	"int overflow":        `{"l":9223372036854775808,"max_opacity":0.5,"types":null}`,
	"int 19 digits":       `{"l":-9223372036854775808,"max_opacity":0.5,"types":null}`,
	"negative zero":       `{"l":-0,"max_opacity":-0,"types":null}`,
	"bare minus":          `{"l":-,"max_opacity":0.5,"types":null}`,
	"dot without digits":  `{"l":1,"max_opacity":1.,"types":null}`,
	"html label":          `{"l":2,"max_opacity":0,"types":[{"label":"<a&b>","within":0,"total":0,"opacity":0}]}`,
	"escaped html label":  `{"l":2,"max_opacity":0,"types":[{"label":"\u003ca\u0026b\u003e","within":0,"total":0,"opacity":0}]}`,
	"quote label":         `{"l":2,"max_opacity":0,"types":[{"label":"say \"hi\"","within":0,"total":0,"opacity":0}]}`,
	"backslash label":     `{"l":2,"max_opacity":0,"types":[{"label":"a\\b","within":0,"total":0,"opacity":0}]}`,
	"raw control byte":    "{\"l\":2,\"max_opacity\":0,\"types\":[{\"label\":\"a\x01b\",\"within\":0,\"total\":0,\"opacity\":0}]}",
	"escaped control":     `{"l":2,"max_opacity":0,"types":[{"label":"a\u0001\n","within":0,"total":0,"opacity":0}]}`,
	"invalid utf-8":       "{\"l\":2,\"max_opacity\":0,\"types\":[{\"label\":\"a\xffb\",\"within\":0,\"total\":0,\"opacity\":0}]}",
	"line separators":     "{\"l\":2,\"max_opacity\":0,\"types\":[{\"label\":\"a\u2028b\\u2029\",\"within\":0,\"total\":0,\"opacity\":0}]}",
	"unterminated label":  `{"l":2,"max_opacity":0,"types":[{"label":"abc`,
	"reordered keys":      `{"types":null,"max_opacity":0.5,"l":2}`,
	"reordered row keys":  `{"l":2,"max_opacity":0.5,"types":[{"opacity":0.5,"total":2,"within":1,"label":"x"}]}`,
	"mixed-case keys":     `{"L":2,"Max_Opacity":0.5,"TYPES":[{"Label":"x","WITHIN":1,"total":2,"opacity":0.5}]}`,
	"duplicate keys":      `{"l":2,"l":3,"max_opacity":0.5,"types":null,"types":[]}`,
	"unknown keys":        `{"l":2,"extra":{"a":[1,2]},"max_opacity":0.5,"types":[{"label":"x","within":1,"total":2,"opacity":0.5,"more":true}]}`,
	"missing keys":        `{"l":2}`,
	"wrong types":         `{"l":"2","max_opacity":0.5,"types":null}`,
	"whitespace":          " \n\t{ \"l\" : 2 ,\"max_opacity\":0.5, \"types\" : [ ] }\r\n",
	"pretty-printed":      "{\n  \"l\": 2,\n  \"max_opacity\": 0.5,\n  \"types\": [\n    {\n      \"label\": \"x\",\n      \"within\": 1,\n      \"total\": 2,\n      \"opacity\": 0.5\n    }\n  ]\n}\n",
	"trailing newline":    `{"l":2,"max_opacity":0.5,"types":null}` + "\n",
	"trailing data":       `{"l":2,"max_opacity":0.5,"types":null}x`,
	"two documents":       `{"l":2,"max_opacity":0.5,"types":null}{}`,
	"trailing comma":      `{"l":2,"max_opacity":0.5,"types":[{"label":"x","within":1,"total":2,"opacity":0.5},]}`,
	"missing comma":       `{"l":2,"max_opacity":0.5,"types":[{"label":"x","within":1,"total":2,"opacity":0.5}{"label":"y","within":1,"total":2,"opacity":0.5}]}`,
	"leading comma":       `{"l":2,"max_opacity":0.5,"types":[,{"label":"x","within":1,"total":2,"opacity":0.5}]}`,
	"null document":       `null`,
	"empty object":        `{}`,
	"array document":      `[]`,
	"empty input":         ``,
	"only whitespace":     " \n",
	"types not array":     `{"l":2,"max_opacity":0.5,"types":{}}`,
	"null row":            `{"l":2,"max_opacity":0.5,"types":[null]}`,
	"partial row":         `{"l":2,"max_opacity":0.5,"types":[{"label":"x"}]}`,
	"null fields":         `{"l":null,"max_opacity":null,"types":null}`,
	"truncated":           `{"l":2,"max_opacity":0.5,"types":[{"label":"x","within":1`,
	"big row count":       `{"l":2,"max_opacity":0.5,"types":[{"label":"x","within":1,"total":2,"opacity":0.5},{"label":"y","within":2,"total":4,"opacity":0.5},{"label":"z","within":0,"total":0,"opacity":0}]}`,
	"nested garbage type": `{"l":2,"max_opacity":0.5,"types":[{"label":"x","within":1,"total":2,"opacity":"0.5"}]}`,
}

// nonZeroTarget returns a fresh, fully populated response to decode
// into: encoding/json keeps whatever fields a document leaves out and
// decodes rows into the existing elements, and the codec must agree.
func nonZeroTarget() OpacityResponse {
	return OpacityResponse{L: 7, MaxOpacity: 0.25, Types: []OpacityType{
		{Label: "old0", Within: 1, Total: 2, Opacity: 0.5},
		{Label: "old1", Within: 3, Total: 4, Opacity: 0.75},
		{Label: "old2", Within: 5, Total: 6, Opacity: 5.0 / 6},
	}}
}

// checkOpacityJSON is the differential check: UnmarshalJSON succeeds
// exactly when json.Unmarshal into the method-free type does, with the
// same result from a zero and a non-zero target, and every decoded
// value encodes as json.Marshal encodes it and decodes back to itself.
func checkOpacityJSON(t *testing.T, data []byte) {
	t.Helper()
	for _, fresh := range []func() OpacityResponse{func() OpacityResponse { return OpacityResponse{} }, nonZeroTarget} {
		want := opacityResponseFields(fresh())
		wantErr := json.Unmarshal(data, &want)
		got := fresh()
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: UnmarshalJSON error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, OpacityResponse(want)) {
			t.Fatalf("%q: UnmarshalJSON decoded\n%#v\nencoding/json decoded\n%#v", data, got, want)
		}
		checkOpacityEncoding(t, got)
		back := nonZeroTarget()
		enc, _ := got.MarshalJSON()
		if err := back.UnmarshalJSON(enc); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("%q: re-decoding %s gave %#v, %v", data, enc, back, err)
		}
	}
}

// checkOpacityEncoding compares MarshalJSON, and json.Marshal through
// it, with json.Marshal of the method-free type.
func checkOpacityEncoding(t *testing.T, v OpacityResponse) {
	t.Helper()
	want, wantErr := json.Marshal(opacityResponseFields(v))
	got, gotErr := v.MarshalJSON()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%#v: MarshalJSON error %v, encoding/json error %v", v, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%#v: MarshalJSON\n%s\nencoding/json\n%s", v, got, want)
	}
	if via, err := json.Marshal(v); err != nil || !bytes.Equal(via, want) {
		t.Fatalf("%#v: json.Marshal through the method gave %s, %v", v, via, err)
	}
}

func TestOpacityResponseJSON(t *testing.T) {
	for name, v := range opacityValues {
		t.Run("encode/"+name, func(t *testing.T) {
			checkOpacityEncoding(t, v)
			doc, err := json.Marshal(opacityResponseFields(v))
			if err != nil {
				t.Fatal(err)
			}
			checkOpacityJSON(t, doc)
		})
	}
	for name, doc := range opacityDocs {
		t.Run("decode/"+name, func(t *testing.T) { checkOpacityJSON(t, []byte(doc)) })
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []OpacityResponse{{MaxOpacity: f}, {Types: []OpacityType{{Label: "x", Opacity: f}}}} {
			if _, err := v.MarshalJSON(); err == nil {
				t.Errorf("%#v: MarshalJSON accepted %v", v, f)
			}
			checkOpacityEncoding(t, v)
		}
	}
}

// TestOpacityResponseJSONFastPath pins which documents the one-pass
// parser takes: the encoder's output whenever its labels are plain
// bytes, so the fallback stays the exception.
func TestOpacityResponseJSONFastPath(t *testing.T) {
	fast := map[string]bool{
		"nil types": true, "empty types": true, "rows": true, "exponent floats": true,
		"extreme ints": false, // MinInt64 and MaxInt64 have 19 digits
		"html label":   false, "quote label": false, "backslash": false, "control bytes": false,
		"invalid utf-8": false, "line separator": false, "non-ascii": false, "empty label": true,
	}
	for name, v := range opacityValues {
		doc, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := fast[name]
		if !ok {
			t.Fatalf("%s: no expectation", name)
		}
		if _, got := parseOpacityResponse(append(doc, '\n')); got != want {
			t.Errorf("%s: one-pass parse %v, want %v, for %s", name, got, want, doc)
		}
	}
}

func FuzzOpacityResponseJSON(f *testing.F) {
	for _, v := range opacityValues {
		if doc, err := v.MarshalJSON(); err == nil {
			f.Add(doc)
		}
	}
	for _, doc := range opacityDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(checkOpacityJSON)
}

// webRMATAnswer is the opacity answer for one of the graphs perfbench's
// audit workload serves: web-RMAT, n=2000, m=20000, at L=2 (~6.6k rows).
func webRMATAnswer(tb testing.TB) OpacityResponse {
	g, err := gen.RMAT(2000, 20000, gen.WebRMAT(), rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	rep := opacity.NewReport(g, nil, 2)
	resp := OpacityResponse{L: 2, MaxOpacity: rep.MaxLO, Types: make([]OpacityType, len(rep.ByType))}
	for i, t := range rep.ByType {
		resp.Types[i] = OpacityType{Label: t.Label, Within: t.Within, Total: t.Total, Opacity: t.Opacity}
	}
	return resp
}

// TestOpacityResponseJSONWebRMAT runs the differential check on a full
// audit-sized answer.
func TestOpacityResponseJSONWebRMAT(t *testing.T) {
	resp := webRMATAnswer(t)
	checkOpacityEncoding(t, resp)
	doc, _ := resp.MarshalJSON()
	if _, ok := parseOpacityResponse(doc); !ok {
		t.Fatal("the one-pass parser rejected the encoder's output")
	}
	checkOpacityJSON(t, doc)
}

var (
	benchBytes []byte
	benchResp  OpacityResponse
)

func BenchmarkOpacityResponseJSON(b *testing.B) {
	resp := webRMATAnswer(b)
	doc, err := resp.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d rows, %d bytes", len(resp.Types), len(doc))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchBytes, _ = resp.MarshalJSON()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var out OpacityResponse
			if err := out.UnmarshalJSON(doc); err != nil {
				b.Fatal(err)
			}
			benchResp = out
		}
	})
}
