package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing for the per-layer run. Spans are recorded only from this
// package, around calls into each layer's public surface: the generator's
// HTTP round trip (client.request), the server's ServeHTTP
// (server.handler) and the leader's replication routes
// (replication.fetch, replication.poll). The run alternates one-second
// slices with tracing on and off, so the same run also yields the tracing
// overhead.

// span is one timed interval. Parent indexes the span that caused it (-1
// for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reports inactive.
type tracer struct {
	epoch     time.Time
	on        atomic.Bool
	replBytes atomic.Int64
	mu        sync.Mutex
	spans     []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether requests starting now are traced.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) record(name string, req uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: -1, Req: req})
	t.mu.Unlock()
}

// slices toggles tracing each second from start until stop closes: on in
// even slices, off in odd ones. The caller waits on the returned channel.
func (t *tracer) slices(start time.Time, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	if t == nil {
		close(done)
		return done
	}
	go func() {
		defer close(done)
		defer t.on.Store(false)
		for i := 0; ; i++ {
			t.on.Store(i%2 == 0)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(i+1) * time.Second))):
			}
		}
	}()
	return done
}

// wrap times (*Server).ServeHTTP for traced requests. On a leader it also
// times the replication routes the follower calls and counts their bytes; a
// long poll that ended without data is a wait, not a fetch, and is named
// replication.poll.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var cw *countingWriter
		if strings.HasPrefix(r.URL.Path, "/v1/replication/") {
			cw = &countingWriter{ResponseWriter: w, n: &t.replBytes, status: http.StatusOK}
			w = cw
		}
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		rid, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		name := "server.handler"
		switch {
		case cw != nil && cw.status == http.StatusNoContent:
			name = "replication.poll"
		case cw != nil:
			name = "replication.fetch"
		}
		t.record(name, rid, start, time.Now())
	})
}

// countingWriter counts response bytes, notes the status and keeps
// streaming flushes working.
type countingWriter struct {
	http.ResponseWriter
	n      *atomic.Int64
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// link sets each server span's parent to the client span of its request.
func (t *tracer) link() {
	clientOf := make(map[uint64]int)
	for i, s := range t.spans {
		if s.Name == "client.request" {
			clientOf[s.Req] = i
		}
	}
	for i, s := range t.spans {
		if s.Name == "server.handler" {
			if p, ok := clientOf[s.Req]; ok {
				t.spans[i].Parent = p
			}
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			cs, ce := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > curE {
				covered += curE - curS
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		covered += curE - curS
		self[i] -= covered
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
