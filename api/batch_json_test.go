package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/opacity"
)

// deep nests a value n levels of arrays deep.
func deep(n int) string { return strings.Repeat("[", n) + "1" + strings.Repeat("]", n) }

// batchValues are responses whose encoding must match json.Marshal's,
// the results it has to compact or escape, and the ones it rejects,
// included.
var batchValues = map[string]BatchResponse{
	"nil results":   {Succeeded: 0, Failed: 0},
	"empty results": {Results: []BatchItemResult{}},
	"mixed": {Succeeded: 2, Failed: 1, Results: []BatchItemResult{
		{Index: 0, Op: "opacity", Status: 200, CacheHit: true, Result: json.RawMessage(`{"l":2,"max_opacity":0.5,"types":[{"label":"P{1,2}","within":1,"total":2,"opacity":0.5}]}`)},
		{Index: 1, Op: "properties", Status: 200, Result: json.RawMessage(`{"nodes":7,"avg_degree":2.857142857142857,"ok":true,"x":null,"e":1E+2,"f":-0.5e-3}`)},
		{Index: 2, Op: "opacity", Status: 404, Error: &Error{Code: CodeGraphNotFound, Message: `graph "<x>&\"" not found`, Details: map[string]any{"graph_ref": `<x>&"`, "n": 3.5}}},
	}},
	"no result or error": {Results: []BatchItemResult{{Index: 3, Op: "kiso", Status: 200}}},
	"empty raw result":   {Results: []BatchItemResult{{Op: "x", Result: json.RawMessage{}}}},
	"null result":        {Results: []BatchItemResult{{Op: "x", Result: json.RawMessage(`null`)}}},
	"scalar results": {Results: []BatchItemResult{
		{Result: json.RawMessage(`"s"`)}, {Result: json.RawMessage(`-0`)}, {Result: json.RawMessage(`true`)},
		{Result: json.RawMessage(`[]`)}, {Result: json.RawMessage(`{}`)}, {Result: json.RawMessage(`[{},[],""]`)},
	}},
	"escaped strings":   {Results: []BatchItemResult{{Result: json.RawMessage(`["\u003c\u0026\u003e","\"\\\/\b\f\n\r\t","\uABCD\u2028"]`)}}},
	"whitespace result": {Results: []BatchItemResult{{Op: "x", Result: json.RawMessage(" {\n  \"a\" : [ 1 , 2 ]\t}\r\n")}}},
	"html result": {Results: []BatchItemResult{
		{Result: json.RawMessage(`"<"`)}, {Result: json.RawMessage(`">"`)}, {Result: json.RawMessage(`{"a&b":1}`)},
	}},
	"line separator":     {Results: []BatchItemResult{{Result: json.RawMessage("[\"a\u2028b\",\"c\u2029d\"]")}}},
	"non-ascii result":   {Results: []BatchItemResult{{Result: json.RawMessage(`"é{1,2}` + "\xe2\x80\xaa" + `"`)}}},
	"invalid utf-8":      {Results: []BatchItemResult{{Result: json.RawMessage("\"a\xffb\xe2\"")}}},
	"invalid json":       {Results: []BatchItemResult{{Result: json.RawMessage(`{"a":`)}}},
	"two values":         {Results: []BatchItemResult{{Result: json.RawMessage(`1 2`)}}},
	"control byte":       {Results: []BatchItemResult{{Result: json.RawMessage("\"a\x01\"")}}},
	"at the depth cap":   {Results: []BatchItemResult{{Result: json.RawMessage(deep(maxDepth))}}},
	"past the depth cap": {Results: []BatchItemResult{{Result: json.RawMessage(deep(maxDepth + 1))}}},
	"odd ops": {Results: []BatchItemResult{
		{Op: "<op>"}, {Op: `a"b`}, {Op: "é"}, {Op: "a\xffb"}, {Op: ""},
	}},
	"extreme ints":      {Succeeded: math.MinInt64, Failed: math.MaxInt64, Results: []BatchItemResult{{Index: -1, Status: math.MaxInt64}}},
	"unsupported error": {Results: []BatchItemResult{{Error: &Error{Code: "c", Details: map[string]any{"x": math.NaN()}}}}},
	"empty error":       {Results: []BatchItemResult{{Op: "x", Error: &Error{}}}},
}

// batchDocs are documents the decoder must read exactly as
// encoding/json does, or reject exactly when it does.
var batchDocs = map[string]string{
	"canonical":          `{"results":[{"index":0,"op":"opacity","status":200,"cache_hit":true,"result":{"l":2,"max_opacity":0,"types":null}},{"index":1,"op":"dataset","status":404,"error":{"code":"dataset_not_found","message":"m","details":{"key":"k"}}}],"succeeded":1,"failed":1}`,
	"null results":       `{"results":null,"succeeded":0,"failed":0}`,
	"empty results":      `{"results":[],"succeeded":0,"failed":0}`,
	"surrounding space":  " \n\t{\"results\":[],\"succeeded\":0,\"failed\":0}\r\n",
	"whitespace inside":  `{ "results" : [ { "index" : 0 , "op" : "x" , "status" : 200 , "result" : { "a" : [ 1 , 2 ] } } ] , "succeeded" : 1 , "failed" : 0 }`,
	"whitespace result":  `{"results":[{"index":0,"op":"x","status":200,"result":{ "a":1 }}],"succeeded":1,"failed":0}`,
	"null result":        `{"results":[{"index":0,"op":"x","status":200,"result":null}],"succeeded":1,"failed":0}`,
	"null error":         `{"results":[{"index":0,"op":"x","status":200,"error":null}],"succeeded":1,"failed":0}`,
	"cache_hit false":    `{"results":[{"index":0,"op":"x","status":200,"cache_hit":false}],"succeeded":1,"failed":0}`,
	"html result":        `{"results":[{"index":0,"op":"x","status":200,"result":"<a&b>"}],"succeeded":1,"failed":0}`,
	"escaped result":     `{"results":[{"index":0,"op":"x","status":200,"result":"\u003ca\u0026b\u003e"}],"succeeded":1,"failed":0}`,
	"line separator":     "{\"results\":[{\"index\":0,\"op\":\"x\",\"status\":200,\"result\":\"a\u2028b\"}],\"succeeded\":1,\"failed\":0}",
	"invalid utf-8":      "{\"results\":[{\"index\":0,\"op\":\"x\",\"status\":200,\"result\":\"a\xffb\",\"error\":{\"code\":\"\xff\",\"message\":\"\"}}],\"succeeded\":1,\"failed\":0}",
	"control byte":       "{\"results\":[{\"index\":0,\"op\":\"x\",\"status\":200,\"result\":\"a\x01b\"}],\"succeeded\":1,\"failed\":0}",
	"bad escape":         `{"results":[{"index":0,"op":"x","status":200,"result":"\x"}],"succeeded":1,"failed":0}`,
	"short unicode":      `{"results":[{"index":0,"op":"x","status":200,"result":"\u12"}],"succeeded":1,"failed":0}`,
	"non-hex unicode":    `{"results":[{"index":0,"op":"x","status":200,"result":["\uzz12","\u12zz","\uABcd"]}],"succeeded":1,"failed":0}`,
	"invalid result":     `{"results":[{"index":0,"op":"x","status":200,"result":{"a":}}],"succeeded":1,"failed":0}`,
	"trailing comma":     `{"results":[{"index":0,"op":"x","status":200,"result":[1,]}],"succeeded":1,"failed":0}`,
	"bad numbers":        `{"results":[{"index":0,"op":"x","status":200,"result":[01]}],"succeeded":1,"failed":0}`,
	"dot without digits": `{"results":[{"index":0,"op":"x","status":200,"result":1.}],"succeeded":1,"failed":0}`,
	"bare exponent":      `{"results":[{"index":0,"op":"x","status":200,"result":1e}],"succeeded":1,"failed":0}`,
	"dotted exponent":    `{"results":[{"index":0,"op":"x","status":200,"result":1e.5}],"succeeded":1,"failed":0}`,
	"number forms":       `{"results":[{"index":0,"op":"x","status":200,"result":[-0,0.5,1E+2,-1e-7,12e0]}],"succeeded":1,"failed":0}`,
	"plus sign":          `{"results":[{"index":0,"op":"x","status":200,"result":+1}],"succeeded":1,"failed":0}`,
	"broken literal":     `{"results":[{"index":0,"op":"x","status":200,"result":tru}],"succeeded":1,"failed":0}`,
	"missing colon":      `{"results":[{"index":0,"op":"x","status":200,"result":{"a" 1}}],"succeeded":1,"failed":0}`,
	"non-string key":     `{"results":[{"index":0,"op":"x","status":200,"result":{1:2}}],"succeeded":1,"failed":0}`,
	"unclosed result":    `{"results":[{"index":0,"op":"x","status":200,"result":[[1]}],"succeeded":1,"failed":0}`,
	"wrong error type":   `{"results":[{"index":0,"op":"x","status":400,"error":{"code":5}}],"succeeded":0,"failed":1}`,
	"string error":       `{"results":[{"index":0,"op":"x","status":400,"error":"boom"}],"succeeded":0,"failed":1}`,
	"html op":            `{"results":[{"index":0,"op":"<op>","status":200}],"succeeded":1,"failed":0}`,
	"escaped op":         `{"results":[{"index":0,"op":"\u003cop\u003e","status":200}],"succeeded":1,"failed":0}`,
	"string index":       `{"results":[{"index":"0","op":"x","status":200}],"succeeded":1,"failed":0}`,
	"int overflow":       `{"results":[{"index":9223372036854775808,"op":"x","status":200}],"succeeded":1,"failed":0}`,
	"fractional status":  `{"results":[{"index":0,"op":"x","status":200.0}],"succeeded":1,"failed":0}`,
	"reordered keys":     `{"failed":0,"succeeded":1,"results":[{"status":200,"op":"x","index":0,"result":1}]}`,
	"duplicate keys":     `{"results":[{"index":0,"index":1,"op":"x","status":200,"result":1,"result":2}],"succeeded":1,"failed":0,"failed":2}`,
	"unknown keys":       `{"results":[{"index":0,"op":"x","status":200,"extra":[1]}],"more":{"a":1},"succeeded":1,"failed":0}`,
	"mixed-case keys":    `{"Results":[{"INDEX":0,"Op":"x","status":200,"Cache_Hit":true}],"succeeded":1,"FAILED":0}`,
	"missing keys":       `{"results":[{"op":"x"}]}`,
	"trailing data":      `{"results":[],"succeeded":0,"failed":0}x`,
	"two documents":      `{"results":[],"succeeded":0,"failed":0}{}`,
	"truncated":          `{"results":[{"index":0,"op":"x","status":200,"result":{"a":1`,
	"null item":          `{"results":[null],"succeeded":0,"failed":0}`,
	"results not array":  `{"results":{},"succeeded":0,"failed":0}`,
	"leading comma":      `{"results":[,{"index":0,"op":"x","status":200}],"succeeded":1,"failed":0}`,
	"missing comma":      `{"results":[{"index":0,"op":"x","status":200}{"index":1,"op":"x","status":200}],"succeeded":2,"failed":0}`,
	"past the depth cap": `{"results":[{"index":0,"op":"x","status":200,"result":` + deep(maxDepth+1) + `}],"succeeded":1,"failed":0}`,
	"at the depth cap":   `{"results":[{"index":0,"op":"x","status":200,"result":` + deep(maxDepth) + `}],"succeeded":1,"failed":0}`,
	"null document":      `null`,
	"empty object":       `{}`,
	"array document":     `[]`,
	"empty input":        ``,
}

// batchTargets are the values each document is decoded into: a zero
// one, one whose Results is empty but not nil, and a populated one,
// whose existing items encoding/json decodes into, keeping the fields
// a document leaves out.
var batchTargets = map[string]func() BatchResponse{
	"zero":          func() BatchResponse { return BatchResponse{} },
	"empty results": func() BatchResponse { return BatchResponse{Results: []BatchItemResult{}, Succeeded: 7, Failed: 8} },
	"populated": func() BatchResponse {
		results := make([]BatchItemResult, 2, 4)
		results[0] = BatchItemResult{Index: 9, Op: "old", Status: 500, CacheHit: true, Result: json.RawMessage(`"old"`),
			Error: &Error{Code: "old", Message: "old", Details: map[string]any{"old": true}}}
		results[1] = BatchItemResult{Index: 8, CacheHit: true, Result: json.RawMessage(`[1,2,3]`)}
		return BatchResponse{Results: results, Succeeded: 3, Failed: 4}
	},
}

// checkBatchJSON is the differential check: UnmarshalJSON succeeds
// exactly when json.Unmarshal into the method-free type does, with the
// same result from every target and no reference into its input, and
// every decoded value encodes as json.Marshal encodes it.
func checkBatchJSON(t *testing.T, data []byte) {
	t.Helper()
	for name, fresh := range batchTargets {
		want := batchResponseFields(fresh())
		wantErr := json.Unmarshal(data, &want)
		got := fresh()
		in := bytes.Clone(data)
		gotErr := got.UnmarshalJSON(in)
		clear(in) // the decoded value must not alias its input
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q into a %s target: UnmarshalJSON error %v, encoding/json error %v", data, name, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, BatchResponse(want)) {
			t.Fatalf("%q into a %s target: UnmarshalJSON decoded\n%#v\nencoding/json decoded\n%#v", data, name, got, want)
		}
		checkBatchEncoding(t, got)
	}
	checkScanPlain(t, data)
}

// checkBatchEncoding compares MarshalJSON, and json.Marshal through
// it, with json.Marshal of the method-free type.
func checkBatchEncoding(t *testing.T, v BatchResponse) {
	t.Helper()
	want, wantErr := json.Marshal(batchResponseFields(v))
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

// checkScanPlain pins what scanPlain accepts as a whole value: exactly
// the valid documents, nested at most maxDepth deep, that
// encoding/json's compact-and-escape leaves as they are.
func checkScanPlain(t *testing.T, data []byte) {
	t.Helper()
	end, ok := scanPlain(data, 0)
	got := ok && end == len(data)
	same, err := json.Marshal(json.RawMessage(data))
	want := err == nil && bytes.Equal(same, data) && nesting(data) <= maxDepth
	if got != want {
		t.Fatalf("%q: scanPlain took it %v, want %v", data, got, want)
	}
}

// nesting returns how deep the containers of a valid document nest.
func nesting(data []byte) int {
	depth, most, inString := 0, 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '[' || c == '{':
			depth++
			most = max(most, depth)
		case c == ']' || c == '}':
			depth--
		}
	}
	return most
}

func TestBatchResponseJSON(t *testing.T) {
	for name, v := range batchValues {
		t.Run("encode/"+name, func(t *testing.T) {
			checkBatchEncoding(t, v)
			if doc, err := json.Marshal(batchResponseFields(v)); err == nil {
				checkBatchJSON(t, doc)
			}
		})
	}
	for name, doc := range batchDocs {
		t.Run("decode/"+name, func(t *testing.T) { checkBatchJSON(t, []byte(doc)) })
	}
	for _, name := range []string{"invalid json", "two values", "control byte", "unsupported error"} {
		if _, err := batchValues[name].MarshalJSON(); err == nil {
			t.Errorf("%s: MarshalJSON accepted it", name)
		}
	}
}

// TestBatchResponseJSONFastPath pins which values the encoder copies
// verbatim, and that the one-pass parser takes every encoding whose
// ops are plain bytes, the fallback encoder's included.
func TestBatchResponseJSONFastPath(t *testing.T) {
	verbatim := map[string]bool{
		"nil results": true, "empty results": true, "mixed": true, "no result or error": true,
		"empty raw result": true, "null result": true, "scalar results": true, "escaped strings": true,
		"whitespace result": false, "html result": false, "line separator": false,
		"non-ascii result": true, "invalid utf-8": true, "at the depth cap": true, "past the depth cap": false,
		"odd ops": true, "extreme ints": true, "empty error": true,
	}
	for name, v := range batchValues {
		doc, err := v.MarshalJSON()
		if err != nil {
			continue
		}
		want, ok := verbatim[name]
		if !ok {
			t.Fatalf("%s: no expectation", name)
		}
		copied := true
		for _, it := range v.Results {
			if end, ok := scanPlain(it.Result, 0); len(it.Result) > 0 && (!ok || end != len(it.Result)) {
				copied = false
			}
		}
		if copied != want {
			t.Errorf("%s: results copied verbatim %v, want %v", name, copied, want)
		}
		// Not parsed: ops that are not plain bytes, 19-digit ints, and
		// nesting past the cap.
		parsed := name != "odd ops" && name != "extreme ints" && name != "past the depth cap"
		if _, got := parseBatchResponse(append(doc, '\n')); got != parsed {
			t.Errorf("%s: one-pass parse %v, want %v, for %s", name, got, parsed, doc)
		}
	}
}

func FuzzBatchResponseJSON(f *testing.F) {
	for _, v := range batchValues {
		if doc, err := json.Marshal(batchResponseFields(v)); err == nil {
			f.Add(doc)
		}
	}
	for _, doc := range batchDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(checkBatchJSON)
}

// routedBatch is a batch answer shaped like the one perfbench's routed
// workload fetches: 16 opacity items, L=2 and L=3 on the paper's eight
// 100-vertex samples, about 1 500 type rows in all.
func routedBatch(tb testing.TB) BatchResponse {
	rng := rand.New(rand.NewSource(1))
	var resp BatchResponse
	for k, key := range []string{"google100", "epinions100", "enron100", "gnutella100", "wikipedia100",
		"epinions-trust100", "epinions-distrust100", "gnutella-s100"} {
		g, err := dataset.GenerateByKey(key, rng.Int63())
		if err != nil {
			tb.Fatal(err)
		}
		for _, L := range []int{2, 3} {
			rep := opacity.NewReport(g, nil, L)
			ans := OpacityResponse{L: L, MaxOpacity: rep.MaxLO, Types: make([]OpacityType, len(rep.ByType))}
			for i, t := range rep.ByType {
				ans.Types[i] = OpacityType{Label: t.Label, Within: t.Within, Total: t.Total, Opacity: t.Opacity}
			}
			b, err := ans.MarshalJSON()
			if err != nil {
				tb.Fatal(err)
			}
			resp.Results = append(resp.Results, BatchItemResult{
				Index: len(resp.Results), Op: "opacity", Status: 200, CacheHit: k%2 == 0, Result: b,
			})
			resp.Succeeded++
		}
	}
	return resp
}

// TestBatchResponseJSONRouted runs the differential check on a
// routed-sized answer, which must take both fast paths.
func TestBatchResponseJSONRouted(t *testing.T) {
	resp := routedBatch(t)
	checkBatchEncoding(t, resp)
	doc, _ := resp.MarshalJSON()
	if _, ok := parseBatchResponse(doc); !ok {
		t.Fatal("the one-pass parser rejected the encoder's output")
	}
	checkBatchJSON(t, doc)
}

var benchBatch BatchResponse

func BenchmarkBatchResponseJSON(b *testing.B) {
	resp := routedBatch(b)
	doc, err := resp.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	for _, it := range resp.Results {
		rows += bytes.Count(it.Result, []byte(`{"label":`))
	}
	b.Logf("%d items, %d rows, %d bytes", len(resp.Results), rows, len(doc))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchBytes, _ = resp.MarshalJSON()
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			benchBytes, _ = json.Marshal(batchResponseFields(resp))
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var out BatchResponse
			if err := out.UnmarshalJSON(doc); err != nil {
				b.Fatal(err)
			}
			benchBatch = out
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var out batchResponseFields
			if err := json.Unmarshal(doc, &out); err != nil {
				b.Fatal(err)
			}
			benchBatch = BatchResponse(out)
		}
	})
}
