// Package client is the official Go SDK for the lopserve REST service.
// It compiles against the same wire contract (package api) the server
// marshals through, so requests and responses can never drift from the
// service's types.
//
// Construct a client with New and call the typed method for each
// endpoint; every method takes a context and returns the api response
// type. Non-2xx responses come back as *api.Error with the stable
// machine-readable code and the HTTP status filled in:
//
//	c, _ := client.New("http://127.0.0.1:8080")
//	rep, err := c.Opacity(ctx, api.OpacityRequest{Graph: g, L: 2})
//	if api.IsCode(err, api.CodeGraphNotFound) { ... }
//
// The Graph handle implements upload-once semantics for the
// register-once-query-many pattern: construct one with NewGraph (or
// DatasetGraph), and every operation through it registers the graph on
// first use and sends only the content-address reference afterwards.
//
// Requests that fail with 429 (rate limited or queue full) or 503
// (shutting down) are retried with capped exponential backoff; when
// the response carries a Retry-After header — the server's rate
// limiter always sets one — that wait is used instead of the backoff
// step. Transient transport failures (connection refused or reset —
// a backend restarting behind a router, a router failing over) are
// retried under the same attempt budget. See Retry. Backoff waits
// respect context cancellation.
//
// Against a server started with -auth-token, construct the client with
// WithAuthToken; every request then carries the bearer token. Errors
// carry the response's X-Request-ID (api.Error.RequestID) so a failure
// can be quoted to an operator and joined against the server's request
// log.
//
// Responses are decoded with encoding/json, except that a type with its
// own decoder is handed the whole body: api.OpacityResponse and
// api.BatchResponse parse the compact body the server writes in one
// pass, several times faster than reflection on a large answer, and
// hand any other spelling to encoding/json, so the result is the same
// either way.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/api"
)

// Retry configures the automatic retry policy for 429 and 503
// responses — the two statuses the service documents as transient —
// and for connection-refused / connection-reset transport errors,
// where no response was received and a restarting or failed-over
// backend is the likely cause. Other failures are never retried: a
// 4xx will not get better, and re-sending after a mid-response
// transport error could double-execute work.
//
// A retryable response with a Retry-After header (seconds or an HTTP
// date) overrides the exponential step: the server knows when the next
// token arrives, so its wait is authoritative. The header wait is
// capped at MaxRetryAfter to keep a misconfigured server from parking
// the client for minutes.
type Retry struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 1 select 3. Set 1 to disable retries.
	MaxAttempts int
	// BaseDelay is the wait before the first retry, doubling each
	// attempt; zero selects 100 ms.
	BaseDelay time.Duration
	// MaxDelay caps the per-attempt wait; zero selects 2 s.
	MaxDelay time.Duration
	// MaxRetryAfter caps a server-sent Retry-After wait; zero selects
	// 30 s. Waits beyond the cap are clamped, not ignored.
	MaxRetryAfter time.Duration
}

func (r *Retry) setDefaults() {
	if r.MaxAttempts < 1 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 100 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	if r.MaxRetryAfter <= 0 {
		r.MaxRetryAfter = 30 * time.Second
	}
}

// backoff returns the wait before retrying after the given 0-based
// attempt: BaseDelay doubled per attempt, capped at MaxDelay.
func (r Retry) backoff(attempt int) time.Duration {
	d := r.BaseDelay
	for i := 0; i < attempt && d < r.MaxDelay; i++ {
		d *= 2
	}
	if d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default is a dedicated client with
// no global timeout — per-call contexts bound each request.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.httpc = hc }
}

// WithRetry replaces the default retry policy.
func WithRetry(r Retry) Option {
	return func(c *Client) { c.retry = r }
}

// WithAuthToken sets the bearer token sent as Authorization on every
// request, for servers started with -auth-token. An empty token sends
// no header.
func WithAuthToken(token string) Option {
	return func(c *Client) { c.authToken = token }
}

// WithWaitInterval sets the poll interval used by Jobs.Wait; zero
// keeps the default 100 ms.
func WithWaitInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.waitInterval = d
		}
	}
}

// Client is a lopserve API client. It is safe for concurrent use.
type Client struct {
	base         string
	httpc        *http.Client
	retry        Retry
	authToken    string
	waitInterval time.Duration

	// Graphs and Jobs group the registry and async-job endpoints.
	Graphs *GraphsService
	Jobs   *JobsService
}

// New returns a client for the service at baseURL (scheme and host,
// e.g. "http://127.0.0.1:8080"; any trailing slash is ignored).
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: invalid base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q must include scheme and host", baseURL)
	}
	c := &Client{
		base:         strings.TrimRight(baseURL, "/"),
		httpc:        &http.Client{},
		waitInterval: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.retry.setDefaults()
	c.Graphs = &GraphsService{c: c}
	c.Jobs = &JobsService{c: c}
	return c, nil
}

// retryable reports whether a status is worth another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// send issues one request with the retry policy and returns the
// response on 2xx. Non-2xx responses are decoded into *api.Error; 429
// and 503 are retried with capped exponential backoff, and a context
// cancelled mid-backoff aborts immediately with the context's error.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body []byte
	contentType := ""
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		contentType = "application/json"
	}
	return c.sendBytes(ctx, method, path, body, contentType)
}

// transientNetError reports a transport failure worth retrying:
// connection refused (nothing was listening — a restart in progress)
// or connection reset before any response. Context cancellation is
// never transient.
func transientNetError(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// sendBytes is send with a pre-encoded body (nil means no body). It
// owns the whole retry loop: retryable statuses back off per policy,
// and transient transport errors re-dial under the same attempt
// budget.
func (c *Client) sendBytes(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.authToken != "" {
			req.Header.Set("Authorization", "Bearer "+c.authToken)
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			if transientNetError(err) && attempt+1 < c.retry.MaxAttempts {
				if serr := sleep(ctx, c.retry.backoff(attempt)); serr != nil {
					return nil, serr
				}
				continue
			}
			return nil, err
		}
		if resp.StatusCode/100 == 2 {
			return resp, nil
		}
		// The Retry-After header must be read before decodeError drains
		// and closes the response.
		wait, hasRetryAfter := retryAfter(resp)
		apiErr := decodeError(resp)
		if !retryable(resp.StatusCode) || attempt+1 >= c.retry.MaxAttempts {
			return nil, apiErr
		}
		if !hasRetryAfter {
			wait = c.retry.backoff(attempt)
		} else if wait > c.retry.MaxRetryAfter {
			wait = c.retry.MaxRetryAfter
		}
		if err := sleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

// retryAfter parses the response's Retry-After header: delay-seconds
// or an HTTP date, per RFC 9110 §10.2.3. The bool reports whether a
// usable wait was found; a date in the past yields zero (retry now).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decodeError turns a non-2xx response into an *api.Error, consuming
// and closing the body. Bodies that are not the documented envelope
// (a proxy's HTML error page, say) still yield a usable error carrying
// the status. The response's X-Request-ID, when present, is stamped
// onto the error so callers can quote it against the server's request
// log.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	rid := resp.Header.Get("X-Request-ID")
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env api.ErrorResponse
	if err := json.Unmarshal(b, &env); err == nil {
		if e := env.AsError(resp.StatusCode); e != nil {
			e.RequestID = rid
			return e
		}
	}
	return &api.Error{
		Message:    fmt.Sprintf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(b))),
		HTTPStatus: resp.StatusCode,
		RequestID:  rid,
	}
}

// do issues a request and decodes the JSON response into out (skipped
// when out is nil). A response type with its own decoder
// (api.OpacityResponse, api.BatchResponse) is handed the whole body
// directly, which skips the scan json.Decoder makes to find the
// value's end before calling it; a body that decoder rejects (trailing
// data, say) is decoded by json.Decoder as every other response is,
// with the same outcome.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var body io.Reader = resp.Body
	if u, ok := out.(json.Unmarshaler); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("client: reading response: %w", err)
		}
		if u.UnmarshalJSON(b) == nil {
			return nil
		}
		body = bytes.NewReader(b)
	}
	if err := json.NewDecoder(body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// Healthz checks service liveness (GET /v1/healthz).
func (c *Client) Healthz(ctx context.Context) error {
	var h api.HealthResponse
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
}

// Datasets lists the built-in calibrated dataset keys
// (GET /v1/datasets).
func (c *Client) Datasets(ctx context.Context) ([]string, error) {
	var out api.DatasetsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out.Datasets, nil
}

// Dataset generates a built-in dataset deterministically
// (POST /v1/dataset).
func (c *Client) Dataset(ctx context.Context, key string, seed int64) (*api.DatasetResponse, error) {
	var out api.DatasetResponse
	if err := c.do(ctx, http.MethodPost, "/v1/dataset", api.DatasetRequest{Key: key, Seed: seed}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Properties reports a graph's structural properties
// (POST /v1/properties).
func (c *Client) Properties(ctx context.Context, req api.PropertiesRequest) (*api.PropertiesResponse, error) {
	var out api.PropertiesResponse
	if err := c.do(ctx, http.MethodPost, "/v1/properties", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Opacity computes a graph's L-opacity report (POST /v1/opacity).
func (c *Client) Opacity(ctx context.Context, req api.OpacityRequest) (*api.OpacityResponse, error) {
	var out api.OpacityResponse
	if err := c.do(ctx, http.MethodPost, "/v1/opacity", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Anonymize runs an anonymization method synchronously
// (POST /v1/anonymize). For long runs prefer Jobs.Submit plus
// Jobs.Wait or Jobs.Events.
func (c *Client) Anonymize(ctx context.Context, req api.AnonymizeRequest) (*api.AnonymizeResponse, error) {
	var out api.AnonymizeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/anonymize", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// KIso runs k-isomorphism anonymization (POST /v1/kiso).
func (c *Client) KIso(ctx context.Context, req api.KIsoRequest) (*api.KIsoResponse, error) {
	var out api.KIsoResponse
	if err := c.do(ctx, http.MethodPost, "/v1/kiso", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Audit runs the degree-knowledge adversary audit (POST /v1/audit).
func (c *Client) Audit(ctx context.Context, req api.AuditRequest) (*api.AuditResponse, error) {
	var out api.AuditResponse
	if err := c.do(ctx, http.MethodPost, "/v1/audit", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Replay verifies an anonymization audit trail (POST /v1/replay).
func (c *Client) Replay(ctx context.Context, req api.ReplayRequest) (*api.ReplayResponse, error) {
	var out api.ReplayResponse
	if err := c.do(ctx, http.MethodPost, "/v1/replay", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ContinuousAudit replays a stream of graph mutations and reports the
// L-opacity after every step (POST /v1/continuous_audit). For long
// streams prefer Jobs.Submit with op "continuous_audit" and watch the
// per-step progress with Jobs.Events.
func (c *Client) ContinuousAudit(ctx context.Context, req api.ContinuousAuditRequest) (*api.ContinuousAuditResponse, error) {
	var out api.ContinuousAuditResponse
	if err := c.do(ctx, http.MethodPost, "/v1/continuous_audit", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch executes heterogeneous operations in one request
// (POST /v1/batch). Item failures are reported per item in the
// response, not as a call error.
func (c *Client) Batch(ctx context.Context, req api.BatchRequest) (*api.BatchResponse, error) {
	var out api.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats reads the service counters (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GraphsService groups the /v1/graphs registry endpoints.
type GraphsService struct {
	c *Client
}

// Register adds a graph to the content-addressed registry
// (POST /v1/graphs). Registering an already-known graph is not an
// error; the response's Created field distinguishes the two.
func (s *GraphsService) Register(ctx context.Context, req api.GraphRegisterRequest) (*api.GraphRegisterResponse, error) {
	var out api.GraphRegisterResponse
	if err := s.c.do(ctx, http.MethodPost, "/v1/graphs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// List returns the registered graphs, most recently used first
// (GET /v1/graphs).
func (s *GraphsService) List(ctx context.Context) (*api.GraphListResponse, error) {
	var out api.GraphListResponse
	if err := s.c.do(ctx, http.MethodGet, "/v1/graphs", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Get returns one registered graph's metadata (GET /v1/graphs/{id}).
func (s *GraphsService) Get(ctx context.Context, id string) (*api.GraphInfo, error) {
	var out api.GraphInfo
	if err := s.c.do(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Patch derives a new registered graph from an existing one by an
// edge diff (PATCH /v1/graphs/{id}). The parent is never modified;
// the response names the child's content address and echoes its
// lineage. Patching the same diff twice is not an error; the
// response's Created field distinguishes the two.
func (s *GraphsService) Patch(ctx context.Context, id string, req api.GraphPatchRequest) (*api.GraphPatchResponse, error) {
	var out api.GraphPatchResponse
	if err := s.c.do(ctx, http.MethodPatch, "/v1/graphs/"+url.PathEscape(id), req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete unregisters a graph (DELETE /v1/graphs/{id}).
func (s *GraphsService) Delete(ctx context.Context, id string) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/graphs/"+url.PathEscape(id), nil, nil)
}

// Snapshot fetches a graph's binary snapshot envelope — the canonical
// edge set plus every cached distance store — for installation on a
// peer (GET /v1/graphs/{id}/snapshot). The bytes are opaque to the
// client; pass them to InstallSnapshot on another server.
func (s *GraphsService) Snapshot(ctx context.Context, id string) ([]byte, error) {
	resp, err := s.c.sendBytes(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(id)+"/snapshot", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading snapshot: %w", err)
	}
	return data, nil
}

// InstallSnapshot installs a snapshot envelope fetched from a peer as
// graph id (PUT /v1/graphs/{id}/snapshot). The server verifies the
// envelope hashes to id before installing anything; a mismatch comes
// back as *api.Error with code api.CodeSnapshotMismatch.
func (s *GraphsService) InstallSnapshot(ctx context.Context, id string, data []byte) (*api.SnapshotInstallResponse, error) {
	resp, err := s.c.sendBytes(ctx, http.MethodPut, "/v1/graphs/"+url.PathEscape(id)+"/snapshot",
		data, "application/octet-stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out api.SnapshotInstallResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return &out, nil
}
