package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/router"
	"repro/internal/server"
)

// system is the running system under test: one lopserve, or loprouter
// in front of two lopserve backends, each on its own loopback
// listener, plus the SDK client the closed loop drives.
type system struct {
	backends  []*server.Server
	backURLs  []string
	rt        *router.Router
	url       string // where the client sends requests
	api       *client.Client
	transport *http.Transport
	servers   []*http.Server
	wg        sync.WaitGroup
}

// serve starts h on a fresh loopback listener and returns its base URL.
// The serving goroutine ends when close shuts the server down.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// startSystem starts `backends` lopserve instances with cfg (each gets
// its own DataDir suffix when cfg.DataDir is set) and, when routed, a
// loprouter in front of them. tracer, when non-nil, wraps every server's
// and the router's ServeHTTP in spans.
func startSystem(cfg server.Config, backends int, routed bool, tracer *tracer) (*system, error) {
	s := &system{}
	for i := 0; i < backends; i++ {
		c := cfg
		if c.DataDir != "" && backends > 1 {
			c.DataDir = fmt.Sprintf("%s/peer%d", cfg.DataDir, i)
		}
		srv := server.New(c)
		s.backends = append(s.backends, srv)
		url, err := s.serve(tracer.wrap(fmt.Sprintf("server/%d", i), srv))
		if err != nil {
			s.close()
			return nil, err
		}
		s.backURLs = append(s.backURLs, url)
	}
	s.url = s.backURLs[0]
	if routed {
		// The ring hashes peer names, so the backends get fixed names
		// that the router's dialer maps to their listeners: placement
		// then depends only on the graphs, not on the ports drawn.
		addrs := map[string]string{}
		for i, u := range s.backURLs {
			addrs[strings.TrimPrefix(routedPeers[i], "http://")+":80"] = strings.TrimPrefix(u, "http://")
		}
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := addrs[addr]; ok {
				addr = a
			}
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		}
		rt, err := router.New(router.Config{
			Peers: append([]string(nil), routedPeers...), VNodes: routedVNodes,
			Client: &http.Client{Transport: tr},
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("router: %w", err)
		}
		s.rt = rt
		if s.url, err = s.serve(tracer.wrap("router", rt)); err != nil {
			s.close()
			return nil, err
		}
	}
	// One closed-loop client needs one connection; two leave room for
	// the router's concurrent batch groups without exceeding nproc.
	s.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	hc := &http.Client{Transport: requestIDTransport{s.transport}}
	api, err := client.New(s.url, client.WithHTTPClient(hc), client.WithRetry(client.Retry{MaxAttempts: 1}))
	if err != nil {
		s.close()
		return nil, err
	}
	s.api = api
	return s, nil
}

// close stops the router, every server and its serving goroutine, and
// the client's idle connections, and waits for the goroutines to end.
func (s *system) close() {
	if s == nil {
		return
	}
	for _, hs := range s.servers {
		_ = hs.Close() // closing listeners of a server being torn down; nothing to report
	}
	s.wg.Wait()
	if s.rt != nil {
		s.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, b := range s.backends {
		_ = b.Close(ctx) // no jobs were submitted, so there is nothing to drain or report
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
}

// routedPeers are the router's names for the two backends, and
// routedVNodes its virtual nodes per peer (the loprouter default).
var routedPeers = []string{"http://perfbench-backend-0", "http://perfbench-backend-1"}

const routedVNodes = 64

// requestIDKey carries the X-Request-ID of a traced request.
type requestIDKey struct{}

// withRequestID returns ctx tagged with a request ID for the transport
// to send; an empty id leaves ctx untouched.
func withRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// subRequest derives the ID of the k-th request of a traced op.
func subRequest(ctx context.Context, k int) context.Context {
	op, _ := ctx.Value(requestIDKey{}).(string)
	if op == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, fmt.Sprintf("%s.%d", op, k))
}

// requestIDTransport sets X-Request-ID from the request's context, so
// the servers' spans can be joined to the client's op.
type requestIDTransport struct{ base http.RoundTripper }

func (t requestIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-ID", id)
	}
	return t.base.RoundTrip(r)
}
