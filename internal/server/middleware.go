package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"sprofile"
	"sprofile/internal/failpoint"
	"sprofile/internal/metrics"
	"sprofile/internal/replication"
)

// Request-plane guard rails: a max-in-flight admission gate (load shedding),
// panic recovery, and per-route deadlines. All three sit between the metrics
// middleware (outermost, so shed and timed-out requests are still counted and
// timed) and the router.
var (
	mShed = metrics.Default().Counter("sprofile_http_shed_total",
		"Requests refused at admission because the server was at its in-flight limit.")
	mPanics = metrics.Default().Counter("sprofile_http_panics_total",
		"Handler panics recovered by the middleware (each one is a bug).")
)

const (
	// defaultMaxInFlight bounds concurrently served requests when
	// Config.MaxInFlight is zero. Far above any sane handler concurrency, so
	// it only engages under pile-up (slow disk, stalled clients): shedding
	// the excess keeps memory bounded and latency honest instead of queueing
	// toward a timeout.
	defaultMaxInFlight = 1024
	// defaultRequestTimeout is the per-route deadline when
	// Config.RequestTimeout is zero. Statistics are answered in constant
	// time, so anything near it means a stuck disk or a lost client.
	defaultRequestTimeout = 15 * time.Second
)

// deadlineBody is the fixed 503 body http.TimeoutHandler writes when a
// deadline lapses; the code mirrors the taxonomy style ("deadline" is
// request-level, like "shed", not a profile error class).
const deadlineBody = `{"error":"request deadline exceeded","code":"deadline"}` + "\n"

// admissionExempt lists paths that bypass the in-flight gate: liveness and
// scraping must answer exactly when the server is overloaded, and both are
// read-only and allocation-light.
func admissionExempt(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// serveAdmitted runs the shed gate and panic recovery, then routes. The
// ResponseWriter is the statusRecorder installed by instrument, which is how
// the panic path knows whether a status already went out on the wire.
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request) {
	defer s.recoverPanic(w, r)
	if s.inflight != nil && !admissionExempt(r.URL.Path) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			mShed.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: sprofile.ErrShed.Error(),
				Code:  "shed",
			})
			return
		}
	}
	s.serveRouted(w, r)
}

// recoverPanic converts a handler panic into a 500 (when no status has been
// written yet) instead of tearing down the connection, and counts it.
// http.ErrAbortHandler is the sanctioned way to abort a response and is
// re-panicked; http.TimeoutHandler transfers inner-handler panics onto this
// goroutine, so deadline-wrapped routes are covered too.
func (s *Server) recoverPanic(w http.ResponseWriter, r *http.Request) {
	v := recover()
	if v == nil {
		return
	}
	if v == http.ErrAbortHandler {
		panic(v)
	}
	mPanics.Inc()
	slog.Error("handler panic",
		"path", r.URL.Path,
		"method", r.Method,
		"panic", fmt.Sprint(v),
		"stack", string(debug.Stack()))
	if rec, ok := w.(*statusRecorder); !ok || rec.status == 0 {
		writeError(w, http.StatusInternalServerError, "internal error")
	}
}

// withDeadline wraps h with a hard response deadline d. Zero d leaves the
// route unbounded (the streaming routes: http.TimeoutHandler buffers the
// whole response, so bounding an export would also buffer it); deadlines are
// globally disabled by Config.RequestTimeout < 0.
func (s *Server) withDeadline(d time.Duration, h http.Handler) http.Handler {
	if s.requestTimeout <= 0 || d <= 0 {
		return h
	}
	return http.TimeoutHandler(h, d, deadlineBody)
}

// deadlineFunc is withDeadline over a HandlerFunc at the default deadline.
func (s *Server) deadlineFunc(h http.HandlerFunc) http.Handler {
	return s.withDeadline(s.requestTimeout, h)
}

// replicationWALDeadline allows the full long-poll wait plus transfer slack;
// the default deadline would cut every quiet-leader poll short.
func (s *Server) replicationWALDeadline() time.Duration {
	d := replication.MaxWait + 15*time.Second
	if s.requestTimeout > d {
		d = s.requestTimeout
	}
	return d
}

// failpointRequest is the POST /v1/admin/failpoint body: arm Site with Spec
// (failpoint grammar), or disarm it with an empty/"off" Spec.
type failpointRequest struct {
	Site string `json:"site"`
	Spec string `json:"spec"`
}

// handleFailpoint is the runtime fault-injection surface, registered only
// when Config.DebugFailpoints is set (chaos rigs and tests; never production
// defaults). GET lists armed sites with trigger counts, POST arms or disarms
// one site, DELETE disarms everything.
func (s *Server) handleFailpoint(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		sites := failpoint.List()
		if sites == nil {
			sites = []failpoint.Status{}
		}
		writeJSON(w, http.StatusOK, sites)
	case http.MethodPost:
		var req failpointRequest
		if err := strictDecode(r.Body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid failpoint request: %v", err)
			return
		}
		if req.Site == "" {
			writeError(w, http.StatusBadRequest, "missing site")
			return
		}
		if req.Spec == "" || req.Spec == "off" {
			failpoint.Disable(req.Site)
			writeJSON(w, http.StatusOK, map[string]any{"site": req.Site, "armed": false})
			return
		}
		if err := failpoint.Enable(req.Site, req.Spec); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"site": req.Site, "armed": true, "spec": req.Spec})
	case http.MethodDelete:
		failpoint.DisableAll()
		writeJSON(w, http.StatusOK, map[string]any{"armed": false})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET, POST or DELETE")
	}
}
