package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// server is an http.Server on a loopback port; close returns once its
// Serve goroutine has exited.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // drops idle keep-alive conns; requests have all ended
	<-s.done
}

// stack is the serving topology under test, in process: either one
// service handler, or a cluster.Router in front of three backends (the
// scripts/loadgen.sh topology). Every service runs its default Config.
type stack struct {
	svcs    []*service.Service
	servers []*server
	router  *cluster.Router
	url     string // where clients send
	direct  string // one backend behind the router, for the hop comparison
}

func newSingle() (*stack, error) {
	svc := service.New(service.Config{})
	s, err := listen(service.NewHTTPHandler(svc))
	if err != nil {
		closeService(svc)
		return nil, err
	}
	return &stack{svcs: []*service.Service{svc}, servers: []*server{s}, url: s.url}, nil
}

// newCluster starts three backends and a router. With stateDir set the
// backends share it as durable session storage with lazy restore, as in
// scripts/cluster_smoke.sh.
func newCluster(stateDir string) (*stack, error) {
	st := &stack{}
	var urls []string
	for i := 0; i < 3; i++ {
		svc, err := service.Open(service.Config{StateDir: stateDir, LazyRestore: stateDir != ""})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		st.svcs = append(st.svcs, svc)
		s, err := listen(service.NewHTTPHandler(svc))
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, s)
		urls = append(urls, s.url)
	}
	r, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	st.router = r
	s, err := listen(r.Handler())
	if err != nil {
		st.close()
		return nil, err
	}
	st.servers = append(st.servers, s)
	st.url, st.direct = s.url, urls[0]
	return st, nil
}

// close stops the router first, then the listeners, then drains the
// services.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	}
	for i := len(st.servers) - 1; i >= 0; i-- {
		st.servers[i].close()
	}
	for _, svc := range st.svcs {
		closeService(svc)
	}
}

func closeService(svc *service.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = svc.Close(ctx) // a drain timeout only leaves work behind a process that is exiting
}

// serviceStats sums the counters of every backend.
func (st *stack) serviceStats() service.Stats {
	var sum service.Stats
	for _, svc := range st.svcs {
		s := svc.Stats()
		sum.Errors += s.Errors
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.JournalFsyncs += s.JournalFsyncs
	}
	return sum
}

func (st *stack) routerStats() cluster.Stats {
	if st.router == nil {
		return cluster.Stats{}
	}
	return st.router.Stats()
}

// newClient allows at most conns connections, one per client goroutine.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole answer.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// mustOK turns a non-2xx answer into an error.
func mustOK(status int, body []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return body, nil
}
