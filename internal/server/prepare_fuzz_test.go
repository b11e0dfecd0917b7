package server

import (
	"context"
	"testing"
)

// FuzzPrepareItem feeds arbitrary (op, request document) pairs to the
// decoder and validators every JSON operation shares — the synchronous
// handlers, POST /v1/jobs and each batch item. Whatever the bytes,
// prepareItem must return an error or a runnable operation of the
// requested kind; it must never panic. Items name a registered graph
// as the batch-level shared reference, so documents without a graph
// of their own reach the validators too.
func FuzzPrepareItem(f *testing.F) {
	srv := New(Config{MaxVertices: 64, MaxBatchItems: 8})
	f.Cleanup(func() { srv.Close(context.Background()) })
	fig := figure1()
	shared, _, err := srv.reg.Put(fig.N, fig.Edges)
	if err != nil {
		f.Fatal(err)
	}

	const g = `{"n":7,"edges":[[0,1],[0,2],[1,2],[1,3],[1,4],[2,4],[2,5],[3,4],[4,5],[5,6]]}`
	valid := []struct{ op, doc string }{
		{"properties", `{"graph":` + g + `}`},
		{"opacity", `{"graph":` + g + `,"l":2}`},
		{"opacity", `{"l":2,"cache":"off"}`},
		{"anonymize", `{"graph":` + g + `,"l":2,"theta":0.5,"method":"rem","seed":1}`},
		{"kiso", `{"graph":` + g + `,"k":2,"seed":1}`},
		{"audit", `{"published":` + g + `,"original":` + g + `,"l":2,"theta":0.5}`},
		{"continuous_audit", `{"graph":` + g + `,"l":2,"steps":[{"add":[[0,6]],"remove":[[5,6]]}]}`},
		{"dataset", `{"key":"gnutella100","seed":1}`},
		{"replay", `{"original":` + g + `,"l":2,"theta":0.5,"trace":[{"step":1,"op":"remove","edges":[[1,4]]}]}`},
	}
	for _, seed := range valid {
		if _, err := srv.prepareItem(seed.op, []byte(seed.doc), shared.ID()); err != nil {
			f.Fatalf("valid %s seed rejected: %v", seed.op, err)
		}
		f.Add(seed.op, []byte(seed.doc))
	}
	for _, seed := range []struct{ op, doc string }{
		{"opacity", `{"graph":` + g + `,"l":2}{"l":3}`},
		{"opacity", `{"graph":` + g + `,"l":2} trailing`},
		{"anonymize", `{"graph":` + g + `,"l":2,"thetaa":0.5}`},
		{"properties", `{"graph":{"n":-1,"edges":[[0,0]]}}`},
		{"dataset", `null`},
		{"nope", `{}`},
		{"opacity", ``},
	} {
		f.Add(seed.op, []byte(seed.doc))
	}
	f.Fuzz(func(t *testing.T, op string, doc []byte) {
		p, err := srv.prepareItem(op, doc, shared.ID())
		if err == nil && (p.op != op || p.run == nil) {
			t.Fatalf("prepareItem(%q) accepted the document as op %q (run set: %v)", op, p.op, p.run != nil)
		}
	})
}
