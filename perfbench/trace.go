package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run: a client op, a
// server's or the router's ServeHTTP, or one in-process call into a
// module's public function during the replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Op     string `json:"op"`       // the op the span belongs to
	Req    string `json:"req"`      // X-Request-ID, for HTTP spans
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. HTTP spans are
// recorded only while it is on; replay spans always.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// interval records a span from start to end.
func (t *tracer) interval(name, op string, parent int, start, end time.Time) int {
	return t.add(span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// begin opens a root span that finish closes; its ID can parent
// spans recorded in between.
func (t *tracer) begin(name, op string) int {
	now := int64(time.Since(t.epoch))
	return t.add(span{Name: name, Op: op, Start: now, End: now})
}

// finish sets the end of a span opened by begin.
func (t *tracer) finish(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// wrap times h's ServeHTTP for requests carrying a benchmark request
// ID ("op<i>.<k>"); health probes and untagged requests pass through.
// A nil tracer returns h itself, so untraced runs carry no wrapper.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !t.on.Load() || !strings.HasPrefix(id, "op") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op, _, _ := strings.Cut(id, ".")
		t.add(span{Name: name, Op: op, Req: id,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	})
}

// link sets each HTTP span's parent to the innermost span of the same
// op that encloses it: the client op for the outermost server span,
// the router span for a backend span.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[string][]int{}
	for i, s := range t.spans {
		if s.Parent == 0 && s.Op != "" {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for _, idx := range byOp {
		for _, i := range idx {
			s := &t.spans[i]
			best := -1
			for _, j := range idx {
				c := t.spans[j]
				if j == i || tier(c.Name) >= tier(s.Name) || c.Start > s.Start || c.End < s.End {
					continue
				}
				if best < 0 || t.spans[best].dur() > c.dur() {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = t.spans[best].ID
			}
		}
	}
}

// tier orders the HTTP hops, so that concurrent backend calls of one
// batch, which may overlap in time, never parent each other.
func tier(name string) int {
	switch {
	case name == "client":
		return 0
	case name == "router":
		return 1
	}
	return 2
}

// children returns, for every span ID, the spans whose parent it is.
func (t *tracer) children() map[int][]span {
	out := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// named returns the spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores every span as one JSON line and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
