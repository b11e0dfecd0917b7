package server

import (
	"context"
	"slices"
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

	// Beyond opDocs, one document that only the shared reference
	// completes.
	valid := append(slices.Clone(opDocs), struct{ op, doc string }{"opacity", `{"l":2,"cache":"off"}`})
	for _, seed := range valid {
		if _, err := srv.prepareItem(seed.op, []byte(seed.doc), shared.ID()); err != nil {
			f.Fatalf("valid %s seed rejected: %v", seed.op, err)
		}
		f.Add(seed.op, []byte(seed.doc))
	}
	const g = figure1JSON
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
