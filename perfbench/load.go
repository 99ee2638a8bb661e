package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"sprofile/internal/server"
)

// reqHeader carries the load generator's request id, which joins a client
// span to the server spans it caused.
const reqHeader = "X-Perfbench-Req"

// conn is one keep-alive HTTP/1.1 connection of the load generator. Each is
// driven by exactly one goroutine, so requests on it never overlap.
type conn struct {
	hc   *http.Client
	tr   *http.Transport
	tc   *tracer
	rids *atomic.Uint64
	buf  bytes.Buffer
}

func newConn(tc *tracer, rids *atomic.Uint64) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr}, tr: tr, tc: tc, rids: rids}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// reply is one completed request as the generator saw it.
type reply struct {
	status int
	body   []byte // valid until the next request on the same conn
	sent   time.Time
	done   time.Time
	rid    uint64
	traced bool
}

// do sends one request whose pre-encoded body is the concatenation of
// parts, and reads the whole answer.
func (c *conn) do(method, url string, parts ...[]byte) (reply, error) {
	var rd io.Reader
	n := 0
	if len(parts) > 0 {
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = bytes.NewReader(p)
			n += len(p)
		}
		rd = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	req.ContentLength = int64(n)
	rid := c.rids.Add(1)
	req.Header.Set(reqHeader, strconv.FormatUint(rid, 10))
	r := reply{rid: rid, traced: c.tc.active()}
	r.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status, r.body = resp.StatusCode, c.buf.Bytes()
	if r.traced {
		c.tc.record("client.request", rid, r.sent, r.done)
	}
	return r, err
}

// jsonInt extracts the integer value of a top-level "key": field from a
// small JSON answer without a full decode, keeping the generator's own CPU
// use out of the server's way.
func jsonInt(body []byte, key string) (int64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	j := i + len(key) + 3
	k := j
	for k < len(body) && (body[k] == '-' || (body[k] >= '0' && body[k] <= '9')) {
		k++
	}
	v, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	return v, err == nil
}

// host is one server instance listening on loopback inside this process.
type host struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startHost builds a server and serves it on a fresh loopback port. It
// returns once /healthz answers, with the time that took: the set-up time
// users of the server wait for. handler may wrap the server for tracing.
func startHost(cfg server.Config, wrap func(http.Handler) http.Handler) (*host, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ho := &host{srv: srv, hs: hs, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ho.done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := probe.Get(ho.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	setup := time.Since(start)
	if err != nil {
		ho.close()
		return nil, 0, fmt.Errorf("server not ready: %w", err)
	}
	return ho, setup, nil
}

// close stops the listener, waits for the serve loop, then closes the server.
func (h *host) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.done
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// health reads the WAL counters a workload reports: fsyncs issued and the
// snapshot sequence (one per completed checkpoint).
func health(c *conn, url string) (fsyncs, snapSeq int64, err error) {
	r, err := c.do(http.MethodGet, url+"/healthz")
	if err != nil {
		return 0, 0, err
	}
	if r.status != http.StatusOK {
		return 0, 0, fmt.Errorf("healthz answered %d", r.status)
	}
	fsyncs, _ = jsonInt(r.body, "fsyncs")
	snapSeq, _ = jsonInt(r.body, "snapshot_seq")
	return fsyncs, snapSeq, nil
}

// copyDir clones a pristine data directory so every set-up recovers the same
// bytes.
func copyDir(dst, src string) error {
	return os.CopyFS(dst, os.DirFS(src))
}
