package api

// Op is one POST operation of the v1 wire contract, declared once in
// Ops: lopserve serves the table, and loprouter routes by it.
type Op struct {
	// Name names the operation in batch items and job submissions, and
	// gives its synchronous route, POST /v1/<Name>.
	Name string
	// New returns a new zero request document of the operation's type.
	New func() Request
	// InheritsGraphRef reports whether a batch item of this operation
	// that names no graph inherits the batch's shared graph_ref. Only
	// an operation whose request names exactly one graph may: those
	// with two graph inputs (audit, replay) and dataset generation,
	// which names none, have self-contained items.
	InheritsGraphRef bool
}

// Ops is the wire operation table: every POST operation, in the order
// the unknown-op error names them.
var Ops = []Op{
	{"properties", func() Request { return new(PropertiesRequest) }, true},
	{"opacity", func() Request { return new(OpacityRequest) }, true},
	{"anonymize", func() Request { return new(AnonymizeRequest) }, true},
	{"kiso", func() Request { return new(KIsoRequest) }, true},
	{"audit", func() Request { return new(AuditRequest) }, false},
	{"continuous_audit", func() Request { return new(ContinuousAuditRequest) }, true},
	{"dataset", func() Request { return new(DatasetRequest) }, false},
	{"replay", func() Request { return new(ReplayRequest) }, false},
}

// LookupOp returns the table entry named name.
func LookupOp(name string) (Op, bool) {
	for _, op := range Ops {
		if op.Name == name {
			return op, true
		}
	}
	return Op{}, false
}

// Request is the request document of a table operation.
type Request interface {
	// Graphs returns the request's graph reference fields, in routing
	// priority, and its inline graphs, in the same order. A nil inline
	// graph is one the request leaves out.
	Graphs() (refs []*string, inline []*Graph)
}

// InheritGraphRef points req at a batch's shared graph_ref when the
// operation inherits it and req names no graph of its own, neither a
// reference nor an inline graph, and reports whether it did.
func (op Op) InheritGraphRef(req Request, sharedRef string) bool {
	if !op.InheritsGraphRef || sharedRef == "" {
		return false
	}
	refs, inline := req.Graphs()
	if *refs[0] != "" || inline[0].N != 0 || len(inline[0].Edges) != 0 {
		return false
	}
	*refs[0] = sharedRef
	return true
}

// PropertiesRequest asks for the structural property report of a
// graph, given inline or as a registry reference (exactly one of the
// two).
type PropertiesRequest struct {
	Graph    Graph  `json:"graph"`
	GraphRef string `json:"graph_ref,omitempty"`
}

// Graphs implements Request.
func (r *PropertiesRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.GraphRef}, []*Graph{&r.Graph}
}

// PropertiesResponse mirrors lopacity.Properties (the paper's
// Table 2/3 columns).
type PropertiesResponse struct {
	Nodes         int     `json:"nodes"`
	Links         int     `json:"links"`
	Diameter      int     `json:"diameter"`
	AvgDegree     float64 `json:"avg_degree"`
	DegreeStdDev  float64 `json:"degree_stddev"`
	AvgClustering float64 `json:"avg_clustering_coefficient"`
	Assortativity float64 `json:"assortativity"`
	AvgPathLength float64 `json:"avg_path_length"`
}

// OpacityRequest asks for the L-opacity report of a graph, given
// inline or as a registry reference (GraphRef requests additionally
// reuse the registered graph's cached distance store, skipping the
// APSP build). Engine and Store optionally override the server's
// distance-compute defaults (engines: auto, bfs, fw, pointer, bitbfs;
// stores: compact, packed, paged); every combination returns the
// identical report. Cache set to "off" bypasses the content-addressed result
// cache for this request.
type OpacityRequest struct {
	Graph    Graph  `json:"graph"`
	GraphRef string `json:"graph_ref,omitempty"`
	L        int    `json:"l"`
	Engine   string `json:"engine,omitempty"`
	Store    string `json:"store,omitempty"`
	Cache    string `json:"cache,omitempty"`
}

// Graphs implements Request.
func (r *OpacityRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.GraphRef}, []*Graph{&r.Graph}
}

// OpacityResponse reports the graph's maximum opacity and per-type
// rows.
type OpacityResponse struct {
	L          int           `json:"l"`
	MaxOpacity float64       `json:"max_opacity"`
	Types      []OpacityType `json:"types"`
}

// OpacityType is one vertex-pair type row.
type OpacityType struct {
	Label   string  `json:"label"`
	Within  int     `json:"within"`
	Total   int     `json:"total"`
	Opacity float64 `json:"opacity"`
}

// AnonymizeRequest runs one anonymization method on a graph, given
// inline or as a registry reference.
type AnonymizeRequest struct {
	Graph     Graph   `json:"graph"`
	GraphRef  string  `json:"graph_ref,omitempty"`
	L         int     `json:"l"`
	Theta     float64 `json:"theta"`
	Method    string  `json:"method"`
	LookAhead int     `json:"lookahead"`
	Seed      int64   `json:"seed"`
	// BudgetMS caps the run's wall-clock milliseconds; it is clamped
	// to the server's MaxBudget and defaults to it when omitted.
	BudgetMS int64 `json:"budget_ms"`
	// Engine and Store override the server's distance-compute defaults
	// for this run (engines: auto, bfs, fw, pointer, bitbfs; stores:
	// compact, packed, paged); results are identical for every
	// combination, only build time and memory differ.
	Engine string `json:"engine,omitempty"`
	Store  string `json:"store,omitempty"`
	// Cache set to "off" bypasses the content-addressed result cache.
	Cache string `json:"cache,omitempty"`
}

// Graphs implements Request.
func (r *AnonymizeRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.GraphRef}, []*Graph{&r.Graph}
}

// AnonymizeResponse returns the published graph and the run report.
type AnonymizeResponse struct {
	Graph      Graph    `json:"graph"`
	Satisfied  bool     `json:"satisfied"`
	MaxOpacity float64  `json:"max_opacity"`
	Removed    [][2]int `json:"removed"`
	Inserted   [][2]int `json:"inserted"`
	Steps      int      `json:"steps"`
	TimedOut   bool     `json:"timed_out"`
	Distortion float64  `json:"distortion"`
}

// KIsoRequest runs the k-isomorphism comparator on a graph, given
// inline or as a registry reference.
type KIsoRequest struct {
	Graph    Graph  `json:"graph"`
	GraphRef string `json:"graph_ref,omitempty"`
	K        int    `json:"k"`
	Seed     int64  `json:"seed"`
}

// Graphs implements Request.
func (r *KIsoRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.GraphRef}, []*Graph{&r.Graph}
}

// KIsoResponse returns the k-isomorphic graph, its block structure,
// and the edit cost.
type KIsoResponse struct {
	Graph        Graph    `json:"graph"`
	Blocks       [][]int  `json:"blocks"`
	Removed      [][2]int `json:"removed"`
	Inserted     [][2]int `json:"inserted"`
	CrossRemoved int      `json:"cross_removed"`
	Distortion   float64  `json:"distortion"`
}

// AuditRequest checks a published graph against the degree-knowledge
// adversary. Original supplies the pre-anonymization degrees. Either
// graph may be given inline or as a registry reference.
type AuditRequest struct {
	Published    Graph   `json:"published"`
	PublishedRef string  `json:"published_ref,omitempty"`
	Original     Graph   `json:"original"`
	OriginalRef  string  `json:"original_ref,omitempty"`
	L            int     `json:"l"`
	Theta        float64 `json:"theta"`
}

// Graphs implements Request.
func (r *AuditRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.PublishedRef, &r.OriginalRef}, []*Graph{&r.Published, &r.Original}
}

// AuditResponse reports the strongest inference and every vertex-pair
// type whose linkage confidence exceeds theta.
type AuditResponse struct {
	Passed        bool        `json:"passed"`
	MaxConfidence float64     `json:"max_confidence"`
	MaxType       string      `json:"max_type"`
	Vulnerable    []AuditType `json:"vulnerable"`
}

// AuditType is one over-threshold vertex-pair type.
type AuditType struct {
	D1         int     `json:"d1"`
	D2         int     `json:"d2"`
	Confidence float64 `json:"confidence"`
}

// MutationStep is one edit batch of a continuous audit: edges added
// and removed together, atomically, before the opacity re-check.
type MutationStep struct {
	Add    [][2]int `json:"add,omitempty"`
	Remove [][2]int `json:"remove,omitempty"`
}

// ContinuousAuditRequest replays a stream of graph mutations and
// reports the L-opacity after every step — the churn-monitoring
// counterpart of a one-shot opacity check. The graph may be given
// inline or as a registry reference (a registered graph with a warm
// distance store starts the stream with zero APSP builds; each step is
// then served by incremental store repair where the diff is small
// enough, falling back to a rebuild otherwise). When Theta is set,
// each step also reports whether the mutated graph still satisfies
// the privacy threshold.
type ContinuousAuditRequest struct {
	Graph    Graph          `json:"graph"`
	GraphRef string         `json:"graph_ref,omitempty"`
	L        int            `json:"l"`
	Theta    float64        `json:"theta,omitempty"`
	Steps    []MutationStep `json:"steps"`
	Engine   string         `json:"engine,omitempty"`
	Store    string         `json:"store,omitempty"`
}

// Graphs implements Request.
func (r *ContinuousAuditRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.GraphRef}, []*Graph{&r.Graph}
}

// ContinuousAuditStep is the opacity report after one mutation step.
type ContinuousAuditStep struct {
	Step       int     `json:"step"`
	M          int     `json:"m"`
	MaxOpacity float64 `json:"max_opacity"`
	// Satisfied is meaningful only when the request set theta.
	Satisfied bool `json:"satisfied"`
	// Repaired reports whether this step's distances came from
	// incremental store repair (true) or a full rebuild (false).
	Repaired bool `json:"repaired"`
}

// ContinuousAuditResponse reports the whole stream: the per-step
// opacity trajectory and the step that first violated theta (-1 when
// none, or when theta was not set).
type ContinuousAuditResponse struct {
	L              int                   `json:"l"`
	Steps          []ContinuousAuditStep `json:"steps"`
	FirstViolation int                   `json:"first_violation"`
	Repairs        int                   `json:"repairs"`
	Rebuilds       int                   `json:"rebuilds"`
}

// DatasetRequest asks for one of the built-in calibrated dataset
// emulators (the paper's Table 3 samples), generated deterministically
// from the seed.
type DatasetRequest struct {
	Key  string `json:"key"`
	Seed int64  `json:"seed"`
}

// Graphs implements Request: a dataset request names no graph.
func (r *DatasetRequest) Graphs() ([]*string, []*Graph) { return nil, nil }

// DatasetResponse returns the generated graph and its properties.
type DatasetResponse struct {
	Key        string             `json:"key"`
	Graph      Graph              `json:"graph"`
	Properties PropertiesResponse `json:"properties"`
}

// TraceStep is the wire form of one committed move of an
// anonymization audit trail, field-compatible with the trace lines the
// library's TraceWriter emits (lopacity.TraceStep). It is redeclared
// here so the wire contract stays free of the algorithm packages.
type TraceStep struct {
	// Step is the 0-based greedy iteration index.
	Step int `json:"step"`
	// Op is "remove" or "insert".
	Op string `json:"op"`
	// Edges lists the one or more edges of the committed combination.
	Edges [][2]int `json:"edges"`
	// MaxOpacity is the graph-level maximum opacity after the move.
	MaxOpacity float64 `json:"maxOpacity"`
	// Population counts the types attaining MaxOpacity after the move.
	Population int `json:"population"`
}

// ReplayRequest verifies an anonymization audit trail server-side:
// the original graph, the trace steps (as produced by the anonymize
// trace), the claimed privacy target, and optionally the published
// graph to compare against. Either graph may be given inline or as a
// registry reference.
type ReplayRequest struct {
	Original     Graph       `json:"original"`
	OriginalRef  string      `json:"original_ref,omitempty"`
	Trace        []TraceStep `json:"trace"`
	L            int         `json:"l"`
	Theta        float64     `json:"theta"`
	Published    *Graph      `json:"published"`
	PublishedRef string      `json:"published_ref,omitempty"`
	Fast         bool        `json:"fast"`
}

// Graphs implements Request.
func (r *ReplayRequest) Graphs() ([]*string, []*Graph) {
	return []*string{&r.PublishedRef, &r.OriginalRef}, []*Graph{r.Published, &r.Original}
}

// ReplayResponse reports the verification outcome. Verified is false
// when any step is inconsistent, the published graph differs, or the
// final opacity exceeds theta; Error carries the first violation.
type ReplayResponse struct {
	Verified     bool    `json:"verified"`
	Error        string  `json:"error,omitempty"`
	Steps        int     `json:"steps"`
	Removals     int     `json:"removals"`
	Insertions   int     `json:"insertions"`
	FinalOpacity float64 `json:"final_opacity"`
}
