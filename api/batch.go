package api

import "encoding/json"

// BatchRequest is the POST /v1/batch body: a list of heterogeneous
// operations executed in order within one HTTP request. GraphRef,
// when set, is injected as the graph reference of every item whose
// operation inherits it (Op.InheritsGraphRef: properties, opacity,
// anonymize, kiso, continuous_audit) and that does not name its own
// graph — the register-once-query-many pattern in one round trip.
// Items with two graph inputs (audit, replay) and dataset items must
// carry their own references inline.
//
// Items are isolated: one item failing (with its own status and error
// envelope in the matching BatchItemResult) never affects the others,
// and the batch itself answers 200 whenever the request envelope was
// valid. Cacheable items (opacity, anonymize) consult and populate
// the same content-addressed result cache the synchronous endpoints
// use, and items sharing a graph reference share the registry's
// cached distance stores — N opacity items against one graph_ref
// build APSP at most once.
type BatchRequest struct {
	GraphRef string      `json:"graph_ref,omitempty"`
	Items    []BatchItem `json:"items"`
}

// BatchItem is one operation of a batch: Op names the operation (the
// same names POST /v1/jobs accepts) and Request carries the exact
// JSON body the synchronous endpoint would take.
type BatchItem struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

// BatchResponse reports every item's outcome, index-aligned with the
// request's Items.
type BatchResponse struct {
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// BatchItemResult is one item's outcome. Status is the HTTP status
// the synchronous endpoint would have answered; Result holds the
// response document on success, Error the structured envelope on
// failure.
type BatchItemResult struct {
	Index    int             `json:"index"`
	Op       string          `json:"op"`
	Status   int             `json:"status"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    *Error          `json:"error,omitempty"`
}
