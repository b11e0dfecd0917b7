package api

import "encoding/json"

// JobSubmitRequest submits one POST operation for asynchronous
// execution: Op names an operation of the table Ops ("properties",
// "opacity", "anonymize", "kiso", "audit", "continuous_audit",
// "dataset", or "replay") and Request carries the exact JSON body the
// synchronous endpoint would take.
type JobSubmitRequest struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

// JobResponse is the wire form of a job snapshot, returned by the
// submit, poll, and cancel endpoints. Result is present once State is
// "done"; Error once it is "failed". Timestamps are RFC 3339.
type JobResponse struct {
	ID    string `json:"id"`
	Op    string `json:"op"`
	State string `json:"state"`
	// RequestID is the X-Request-ID of the request that submitted the
	// job, so an async run stays traceable to the HTTP request (and
	// access-log line) that started it.
	RequestID  string          `json:"request_id,omitempty"`
	CacheHit   bool            `json:"cache_hit"`
	CreatedAt  string          `json:"created_at"`
	StartedAt  string          `json:"started_at,omitempty"`
	FinishedAt string          `json:"finished_at,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Job lifecycle states, as carried by JobResponse.State and
// JobEvent.State.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobFinished reports whether a wire state string is terminal.
func JobFinished(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCancelled
}

// JobEvent is one line of the GET /v1/jobs/{id}/events NDJSON stream.
// The stream replays the job's history from the beginning (so a
// watcher attaching late, or to an already-finished job, still sees
// every event) and then follows the live job until it reaches a
// terminal state. Type "state" events mark lifecycle transitions;
// type "progress" events carry a Progress payload from the running
// computation. Seq increases strictly within one job; Time is
// RFC 3339.
type JobEvent struct {
	Seq   int    `json:"seq"`
	Time  string `json:"time"`
	Type  string `json:"type"`
	State string `json:"state"`
	// RequestID is the X-Request-ID of the submitting request, stamped
	// on every event so a streamed run is traceable end to end.
	RequestID string       `json:"request_id,omitempty"`
	Error     string       `json:"error,omitempty"`
	Progress  *JobProgress `json:"progress,omitempty"`
}

// JobEvent.Type values.
const (
	JobEventState    = "state"
	JobEventProgress = "progress"
)

// JobProgress is the payload of a "progress" JobEvent, reported by
// long-running anonymization and continuous-audit jobs: steps
// committed so far, the current maximum opacity, and the wall-clock
// budget consumed.
type JobProgress struct {
	// Steps counts committed greedy iterations (or accepted annealing
	// moves); for continuous audits, mutation steps replayed.
	Steps int `json:"steps"`
	// MaxOpacity is the graph-level maximum opacity after the last
	// committed step; the run targets MaxOpacity <= theta.
	MaxOpacity float64 `json:"max_opacity"`
	// ElapsedMS is wall-clock time consumed so far.
	ElapsedMS int64 `json:"elapsed_ms"`
	// BudgetMS is the run's wall-clock cap; 0 reports an unbounded
	// run.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}
