package api

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestOpsTable pins the wire table: its names in order, one request
// type per operation, and graph reference fields that marshal under a
// *_ref JSON name.
func TestOpsTable(t *testing.T) {
	want := []string{"properties", "opacity", "anonymize", "kiso", "audit", "continuous_audit", "dataset", "replay"}
	var names []string
	types := map[reflect.Type]bool{}
	for _, op := range Ops {
		names = append(names, op.Name)
		req := op.New()
		if typ := reflect.TypeOf(req); types[typ] {
			t.Fatalf("%s: request type %v appears twice", op.Name, typ)
		} else {
			types[typ] = true
		}
		refs, _ := req.Graphs()
		for i, ref := range refs {
			*ref = "x"
			var doc map[string]any
			if err := json.Unmarshal(mustMarshal(t, req), &doc); err != nil {
				t.Fatal(err)
			}
			n := 0
			for k, v := range doc {
				if v == "x" {
					n++
					if len(k) < 4 || k[len(k)-4:] != "_ref" {
						t.Fatalf("%s: reference %d marshals as %q", op.Name, i, k)
					}
				}
			}
			if n != i+1 {
				t.Fatalf("%s: %d reference fields set, %d in the document", op.Name, i+1, n)
			}
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("table names %v, want %v", names, want)
	}
}

// TestInheritGraphRef pins the batch graph_ref rule: an inheriting
// operation's request that names no graph takes the shared ref; one
// that names a reference or an inline graph keeps its own, and the
// audit, dataset and replay operations never inherit.
func TestInheritGraphRef(t *testing.T) {
	opacity, _ := LookupOp("opacity")
	for _, tc := range []struct {
		name string
		op   string
		req  Request
		want string // the request's first reference afterwards
	}{
		{"no graph", "opacity", &OpacityRequest{L: 2}, "shared"},
		{"own ref", "opacity", &OpacityRequest{GraphRef: "own"}, "own"},
		{"inline graph", "opacity", &OpacityRequest{Graph: Graph{N: 2, Edges: [][2]int{{0, 1}}}}, ""},
		{"edges only", "opacity", &OpacityRequest{Graph: Graph{Edges: [][2]int{{0, 1}}}}, ""},
		{"continuous audit", "continuous_audit", &ContinuousAuditRequest{}, "shared"},
		{"audit", "audit", &AuditRequest{}, ""},
		{"replay", "replay", &ReplayRequest{}, ""},
	} {
		op, ok := LookupOp(tc.op)
		if !ok {
			t.Fatalf("%s: no op %q", tc.name, tc.op)
		}
		got := op.InheritGraphRef(tc.req, "shared")
		refs, _ := tc.req.Graphs()
		if *refs[0] != tc.want || got != (tc.want == "shared") {
			t.Fatalf("%s: first ref %q, inherited %v; want %q", tc.name, *refs[0], got, tc.want)
		}
	}
	if req := (&OpacityRequest{}); opacity.InheritGraphRef(req, "") || req.GraphRef != "" {
		t.Fatalf("an empty shared ref was inherited: %+v", req)
	}
	if _, ok := LookupOp("nope"); ok {
		t.Fatal("LookupOp found an op not in the table")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
