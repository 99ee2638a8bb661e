// Package server exposes a keyed S-Profile over HTTP, realising the paper's
// claim that the profiler "can be plugged into most of log streams in many
// systems": producers POST (object, action) events as they happen, and
// dashboards or alerting jobs GET the statistics — mode, top-K, quantiles,
// the whole frequency distribution — at any time, each answered in constant
// time from the maintained profile.
//
// The API is deliberately small and JSON-only:
//
//	POST /v1/events              one event or a batch of events
//	POST /v1/events/bulk         NDJSON stream of events (batch fast path)
//	POST /v1/query               one composite multi-statistic query,
//	                             answered atomically from one cut
//	POST /v1/admin/checkpoint    snapshot the profile and truncate the WAL
//	POST /v1/admin/flush         drain the async ingest plane (visibility +
//	                             durability barrier; WAL sync when sync)
//	GET  /v1/stats/mode          most frequent object
//	GET  /v1/stats/top?k=10      top-K objects
//	GET  /v1/stats/min           least frequent slot
//	GET  /v1/stats/bottom?k=10   bottom-K slots
//	GET  /v1/stats/count?object= frequency of one object
//	GET  /v1/stats/median        median frequency
//	GET  /v1/stats/quantile?q=   frequency quantile, q in [0,1]
//	GET  /v1/stats/majority      strict-majority object, if any
//	GET  /v1/stats/distribution  full frequency histogram
//	GET  /v1/stats/summary       aggregate counters
//	GET  /v1/stats/rank?object=  popularity rank and percentile of one object
//	GET  /healthz                liveness probe
//
// Each GET /v1/stats/* route is POST /v1/query with one statistic selected
// (query.go): the same handler path, cut and error mapping.
//
// Concurrency: the server holds no lock of its own. Handlers call a
// sprofile.KeyedConcurrent directly — ingestion synchronises on the event
// key's stripe plus its profile shard, queries on the shards they read — so
// requests for different keys proceed in parallel and readers are never
// blocked behind a writer's fsync. Events inside one POST batch are applied
// one by one; a concurrent reader may observe a batch partially applied
// (each individual statistic is still internally consistent).
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sprofile"
	"sprofile/internal/replication"
	"sprofile/internal/wal"
)

// Config parameterises a Server.
type Config struct {
	// Capacity is the maximum number of concurrently tracked objects.
	Capacity int
	// Shards sets how many independently locked profile shards (and id-mapper
	// stripes, kept aligned with them) the dense-id space is split across.
	// Zero selects one shard per CPU — the right default now that ingestion
	// runs concurrently; use 1 to force a single lock domain.
	Shards int
	// MaxBatch bounds how many events one POST may carry; zero selects the
	// default of 10 000.
	MaxBatch int
	// WALPath, when non-empty, makes ingested events durable: they are
	// appended to a write-ahead log directory at this path and replayed
	// into the profile when the server starts. A legacy single-file log at
	// the same path is migrated into the directory layout automatically.
	WALPath string
	// WALSyncEvery fsyncs the log after this many events; zero syncs once
	// per accepted batch.
	WALSyncEvery int
	// CheckpointEvery, when positive, checkpoints the profile on that
	// cadence: a snapshot is written into the WAL directory and the log
	// segments it covers are deleted, bounding restart time and disk use.
	// Requires WALPath. Zero disables time-triggered checkpoints; manual
	// ones via POST /v1/admin/checkpoint always work.
	CheckpointEvery time.Duration
	// CheckpointBytes, when positive, additionally checkpoints whenever the
	// WAL tail grows past this many bytes. Requires WALPath.
	CheckpointBytes int64
	// Follow, when non-empty, starts the server as a read-only follower of
	// the leader at this base URL: WALPath becomes the local mirror directory
	// (bootstrapped from the leader's snapshot, then tailed continuously),
	// reads are served locally with a staleness watermark, and writes are
	// refused with 503 + a leader hint until POST /v1/admin/promote turns the
	// replica into a leader. Requires WALPath.
	Follow string
	// FollowPoll is the long-poll wait asked of the leader per tail fetch;
	// zero selects the sprofile default (20s).
	FollowPoll time.Duration
	// AsyncIngest routes ingestion through the shared-nothing async plane:
	// events are enqueued to per-shard SPSC mailboxes and applied by one
	// goroutine per shard, and reads answer from epoch-published snapshots
	// (bounded staleness; POST /v1/admin/flush forces read-your-write).
	// Full mailboxes are reported as 429 backpressure with a Retry-After
	// hint. Incompatible with Follow (a follower ingests nothing locally).
	AsyncIngest bool
	// AsyncFlushInterval is the snapshot publish cadence (the staleness
	// bound) in async mode; zero selects the sprofile default (2ms).
	AsyncFlushInterval time.Duration
	// AsyncMailboxDepth is the per-producer, per-shard mailbox capacity in
	// async mode; zero selects the sprofile default (1024).
	AsyncMailboxDepth int
	// MaxInFlight bounds concurrently served requests; excess requests are
	// shed at admission with 503 code "shed" and a Retry-After instead of
	// queueing. Zero selects the default (1024); negative disables the gate.
	// /healthz and /metrics are exempt so probes and scrapes still answer
	// under overload.
	MaxInFlight int
	// RequestTimeout is the per-route response deadline; a lapsed route
	// answers 503 code "deadline". Zero selects the default (15s); negative
	// disables deadlines. Streaming routes (bulk ingest, export/import,
	// replication transfers) are never bounded, and the replication
	// long-poll route gets the long-poll window plus slack.
	RequestTimeout time.Duration
	// DebugFailpoints registers POST /v1/admin/failpoint, the runtime
	// fault-injection surface. For chaos rigs and tests only — never enable
	// it on a production node.
	DebugFailpoints bool
}

// Server is the HTTP facade over a concurrent keyed profile. It is safe for
// concurrent use with no server-level mutex: all synchronisation lives in
// the profile's stripe and shard locks, so the ingest and query hot paths
// never serialise on each other.
type Server struct {
	profile  *sprofile.KeyedConcurrent[string]
	async    *sprofile.AsyncKeyed[string] // non-nil with Config.AsyncIngest
	follower *sprofile.KeyedFollower      // non-nil in follower mode (stays set after promote)
	leader   string                       // leader base URL (follower mode)
	walPath  string
	maxBatch int
	mux      *http.ServeMux

	// Request-plane guard rails (middleware.go).
	inflight        chan struct{} // admission gate; nil disables shedding
	requestTimeout  time.Duration // per-route deadline; <= 0 disables
	debugFailpoints bool          // register /v1/admin/failpoint

	// Degraded read-only mode (degrade.go).
	degraded        atomic.Bool
	degradeStop     chan struct{}
	degradeDone     chan struct{}
	degradeStopOnce sync.Once
}

// initGuards sizes the admission gate and deadlines from cfg; shared by the
// leader and follower constructors.
func (s *Server) initGuards(cfg Config) {
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = defaultMaxInFlight
	}
	if maxInFlight > 0 {
		s.inflight = make(chan struct{}, maxInFlight)
	}
	s.requestTimeout = cfg.RequestTimeout
	if s.requestTimeout == 0 {
		s.requestTimeout = defaultRequestTimeout
	}
	s.debugFailpoints = cfg.DebugFailpoints
}

// prof resolves the profile serving this request. In leader mode it is fixed;
// in follower mode it is the replica behind an atomic pointer, which swaps on
// rebootstrap and on promote — handlers therefore resolve it per request and
// never cache it across requests.
func (s *Server) prof() *sprofile.KeyedConcurrent[string] {
	if s.follower != nil {
		return s.follower.Profile()
	}
	return s.profile
}

// keyed resolves the profiler surface handlers read and write through: the
// async plane when configured (lock-free enqueues, epoch-snapshot reads),
// otherwise the synchronous profile itself.
func (s *Server) keyed() sprofile.KeyedProfiler[string] {
	if s.async != nil {
		return s.async
	}
	return s.prof()
}

// applyBatch routes one decoded bulk chunk through whichever batch path is
// configured.
func (s *Server) applyBatch(events []sprofile.KeyedTuple[string]) (int, error) {
	if s.async != nil {
		return s.async.ApplyBatch(events)
	}
	return s.prof().ApplyBatch(events)
}

// readOnly reports whether this server must refuse writes (an unpromoted
// follower: its profile is driven by the leader's WAL, and a local write
// would silently diverge from it).
func (s *Server) readOnly() bool {
	return s.follower != nil && !s.follower.Promoted()
}

// errConfig is the package's construction-time sentinel: every invalid
// Config combination New refuses wraps it, so embedders can errors.Is for
// the whole class. It never crosses the wire — by the time the server
// serves, the configuration was valid.
var errConfig = errors.New("server: invalid configuration")

// New returns a Server with the given configuration. When Config.WALPath is
// set, any events already in the log are replayed into the profile before the
// server starts accepting requests.
func New(cfg Config) (*Server, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity must be positive, got %d", errConfig, cfg.Capacity)
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 10_000
	}
	// BuildKeyed enforces strict non-negative counts (recycling keyed
	// profiles require them) and aligns the mapper stripes with the shards;
	// its default when WithSharding is absent is one shard per CPU, which is
	// exactly what Config.Shards <= 0 selects.
	var buildOpts []sprofile.BuildOption
	if cfg.Shards > 0 {
		buildOpts = append(buildOpts, sprofile.WithSharding(cfg.Shards))
	}
	if cfg.Follow != "" {
		if cfg.AsyncIngest {
			return nil, fmt.Errorf("%w: async ingest is incompatible with follower mode (a follower ingests nothing locally)", errConfig)
		}
		return newFollowerServer(cfg, buildOpts, maxBatch)
	}
	if cfg.WALPath != "" {
		buildOpts = append(buildOpts,
			sprofile.WithWAL(cfg.WALPath),
			sprofile.WithWALSyncEvery(cfg.WALSyncEvery))
	}
	if cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0 {
		if cfg.WALPath == "" {
			return nil, fmt.Errorf("%w: checkpointing requires a WAL path", errConfig)
		}
		buildOpts = append(buildOpts, sprofile.WithCheckpoints(sprofile.CheckpointPolicy{
			Every:      cfg.CheckpointEvery,
			EveryBytes: cfg.CheckpointBytes,
		}))
	}
	keyed, err := sprofile.BuildKeyed[string](cfg.Capacity, buildOpts...)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		profile:  keyed,
		walPath:  cfg.WALPath,
		maxBatch: maxBatch,
		mux:      http.NewServeMux(),
	}
	if cfg.AsyncIngest {
		// Error-mode backpressure: a full mailbox becomes a 429 the caller
		// can retry, instead of a handler goroutine blocking inside the
		// profile while holding the connection.
		async, err := sprofile.NewAsyncKeyed(keyed, sprofile.AsyncPolicy{
			MailboxDepth:    cfg.AsyncMailboxDepth,
			PublishInterval: cfg.AsyncFlushInterval,
			Backpressure:    sprofile.BackpressureError,
		})
		if err != nil {
			keyed.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.async = async
	}
	s.initGuards(cfg)
	s.routes()
	s.startDegradeWatcher()
	return s, nil
}

// newFollowerServer builds the read-only replica variant of New: the profile
// is a KeyedFollower continuously mirroring cfg.Follow into cfg.WALPath.
func newFollowerServer(cfg Config, buildOpts []sprofile.BuildOption, maxBatch int) (*Server, error) {
	if cfg.WALPath == "" {
		return nil, fmt.Errorf("%w: follower mode requires a WAL path for the local mirror", errConfig)
	}
	// Checkpoint and sync-cadence options only make sense on a leader; they
	// take effect when (if) this follower is promoted.
	promoteOpts := []sprofile.BuildOption{sprofile.WithWALSyncEvery(cfg.WALSyncEvery)}
	if cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0 {
		promoteOpts = append(promoteOpts, sprofile.WithCheckpoints(sprofile.CheckpointPolicy{
			Every:      cfg.CheckpointEvery,
			EveryBytes: cfg.CheckpointBytes,
		}))
	}
	kf, err := sprofile.NewKeyedFollower(sprofile.FollowerConfig{
		Capacity: cfg.Capacity,
		Leader:   cfg.Follow,
		Dir:      cfg.WALPath,
		LongPoll: cfg.FollowPoll,
		Build:    buildOpts,
		Promote:  promoteOpts,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	kf.Start()
	s := &Server{
		follower: kf,
		leader:   cfg.Follow,
		walPath:  cfg.WALPath,
		maxBatch: maxBatch,
		mux:      http.NewServeMux(),
	}
	s.initGuards(cfg)
	s.routes()
	s.startDegradeWatcher()
	return s, nil
}

// Replayed returns the number of WAL tail records replayed at startup —
// with checkpointing, only the records after the last snapshot.
func (s *Server) Replayed() int { return s.prof().Replayed() }

// Recovery returns the startup recovery breakdown: how much state the
// checkpoint snapshot restored outright and how much log tail was replayed.
func (s *Server) Recovery() sprofile.RecoveryStats { return s.prof().Recovery() }

// Close stops background checkpointing and closes the write-ahead log, if
// one is configured. In follower mode it stops the replication loop and
// closes the mirror.
func (s *Server) Close() error {
	s.stopDegradeWatcher()
	if s.follower != nil {
		return s.follower.Close()
	}
	if s.async != nil {
		// Drains the mailboxes, stops the appliers, then closes the wrapped
		// keyed profile (WAL flush + checkpointer stop).
		return s.async.Close()
	}
	return s.prof().Close()
}

// Shutdown is the drain-ordered stop. The listener half — stop accepting,
// drain in-flight requests with a timeout — belongs to the http.Server
// wrapping this handler (call its Shutdown first); this half then settles
// the data plane in order: flush the async ingest plane so every
// acknowledged event is applied, take a final checkpoint so the next start
// replays (almost) nothing, and close the WAL. The final checkpoint is
// skipped when ctx is already done or the node is degraded (the checkpoint
// would only fail against the sick disk); every later step still runs. The
// first error is returned, but an error never short-circuits the close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopDegradeWatcher()
	if s.follower != nil {
		return s.follower.Close()
	}
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.async != nil {
		record(s.async.Flush())
	}
	if _, ok := s.prof().WALStats(); ok && ctx.Err() == nil && !s.degradedNow() {
		record(s.prof().Checkpoint())
	}
	record(s.Close())
	return firstErr
}

// Flush drains the async ingest plane and republishes the read snapshots,
// returning the first deferred apply error; a no-op without async ingest.
func (s *Server) Flush() error {
	if s.async == nil {
		return nil
	}
	return s.async.Flush()
}

// HeaderMaxStaleness is the request header a reader sets to demand freshness:
// a follower whose staleness watermark exceeds this many milliseconds refuses
// the read with 503 stale_read instead of answering from stale state. Leaders
// always satisfy any bound.
const HeaderMaxStaleness = "X-Sprofile-Max-Staleness-Ms"

// ServeHTTP implements http.Handler. Every request passes through the metrics
// middleware (request counter + latency histogram by route, outermost so shed
// and timed-out requests are still observed), then the admission gate and
// panic recovery (middleware.go); a max-staleness demand is enforced before
// routing, so it guards every read endpoint uniformly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.instrument(http.HandlerFunc(s.serveAdmitted), w, r)
}

func (s *Server) serveRouted(w http.ResponseWriter, r *http.Request) {
	if raw := r.Header.Get(HeaderMaxStaleness); raw != "" {
		bound, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || bound < 0 {
			writeError(w, http.StatusBadRequest, "%s must be a non-negative integer, got %q", HeaderMaxStaleness, raw)
			return
		}
		if s.readOnly() {
			if st := s.follower.Status(); st.StalenessMs > bound {
				w.Header().Set("Retry-After", "1")
				w.Header().Set(replication.HeaderLeader, s.leader)
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{
					Error: fmt.Sprintf("%v: %dms behind, caller demands %dms", sprofile.ErrStaleRead, st.StalenessMs, bound),
					Code:  "stale_read",
				})
				return
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", sprofile.MetricsHandler())
	s.mux.Handle("/v1/events", s.deadlineFunc(s.handleEvents))
	// Bulk ingest streams an unbounded NDJSON body; a deadline would also
	// buffer the (tiny) response, and legitimate loads can run long.
	s.mux.HandleFunc("/v1/events/bulk", s.handleBulk)
	s.mux.Handle("/v1/query", s.deadlineFunc(s.handleQuery))
	s.mux.Handle("/v1/admin/checkpoint", s.deadlineFunc(s.handleCheckpoint))
	s.mux.Handle("/v1/admin/flush", s.deadlineFunc(s.handleFlush))
	if s.debugFailpoints {
		s.mux.Handle("/v1/admin/failpoint", s.deadlineFunc(s.handleFailpoint))
	}
	s.registerStatRoutes()
	s.registerExportRoutes()
	s.registerReplicationRoutes()
}

// eventsResponse reports how a POST /v1/events batch was processed.
type eventsResponse struct {
	Applied int    `json:"applied"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class; see errorCode for the
	// closed set. The Go client SDK maps it back onto the sprofile error
	// taxonomy, so errors.Is works across the wire.
	Code string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by the
	// http server; the status code is already on the wire.
	_ = json.NewEncoder(w).Encode(v)
}

// errorCode maps an error returned by the profile onto the HTTP status and
// the wire error code of its taxonomy class. Every handler funnels profile
// errors through this one mapping, so the same errors.Is class always yields
// the same status:
//
//	invalid_query, invalid_action, out_of_range → 400 Bad Request
//	unknown_key                                 → 404 Not Found
//	strict_violation                            → 409 Conflict
//	empty_profile                               → 422 Unprocessable Entity
//	cap_exceeded                                → 507 Insufficient Storage
//	wal_append (applied but not journaled)      → 500 Internal Server Error
//	read_only, stale_read (replication)         → 503 Service Unavailable
//	degraded (WAL I/O failure, writes refused)  → 503 Service Unavailable
//	shed (admission gate at max in-flight)      → 503 Service Unavailable
//	backpressure (async mailbox full)           → 429 Too Many Requests
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, sprofile.ErrBackpressure):
		return http.StatusTooManyRequests, "backpressure"
	case errors.Is(err, sprofile.ErrDegraded):
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, sprofile.ErrShed):
		return http.StatusServiceUnavailable, "shed"
	case errors.Is(err, sprofile.ErrReadOnly):
		return http.StatusServiceUnavailable, "read_only"
	case errors.Is(err, sprofile.ErrStaleRead):
		return http.StatusServiceUnavailable, "stale_read"
	case errors.Is(err, sprofile.ErrWALAppend):
		return http.StatusInternalServerError, "wal_append"
	case errors.Is(err, sprofile.ErrCapExceeded):
		return http.StatusInsufficientStorage, "cap_exceeded"
	case errors.Is(err, sprofile.ErrUnknownKey):
		return http.StatusNotFound, "unknown_key"
	case errors.Is(err, sprofile.ErrInvalidQuery):
		return http.StatusBadRequest, "invalid_query"
	case errors.Is(err, sprofile.ErrInvalidAction):
		return http.StatusBadRequest, "invalid_action"
	case errors.Is(err, sprofile.ErrOutOfRange):
		return http.StatusBadRequest, "out_of_range"
	case errors.Is(err, sprofile.ErrStrictViolation):
		return http.StatusConflict, "strict_violation"
	case errors.Is(err, sprofile.ErrEmptyProfile):
		return http.StatusUnprocessableEntity, "empty_profile"
	default:
		return http.StatusUnprocessableEntity, "unprocessable"
	}
}

// statusCode names the request-level (non-taxonomy) error classes by status.
func statusCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "unprocessable"
	}
}

// writeError reports a request-level failure (malformed body, bad parameter,
// wrong method) whose class is implied by the status code.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: statusCode(status)})
}

// setRetryHint attaches a Retry-After to transient rejections: async
// backpressure clears as soon as the appliers drain a mailbox slot, shedding
// as soon as an in-flight request finishes, and degradation as soon as the
// recovery probe rolls the log — all within the header's minimum expressible
// hint (one second).
func setRetryHint(w http.ResponseWriter, err error) {
	if errors.Is(err, sprofile.ErrBackpressure) ||
		errors.Is(err, sprofile.ErrDegraded) ||
		errors.Is(err, sprofile.ErrShed) {
		w.Header().Set("Retry-After", "1")
	}
}

// writeProfileError reports a profile operation failure through the taxonomy
// mapping of errorCode.
func writeProfileError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	setRetryHint(w, err)
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

// rejectReadOnly refuses a write on an unpromoted follower: 503 with a
// Retry-After and the leader's URL in X-Sprofile-Leader, so a client can fail
// over immediately instead of waiting out the retry.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.readOnly() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set(replication.HeaderLeader, s.leader)
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: fmt.Sprintf("%v; this is a follower of %s", sprofile.ErrReadOnly, s.leader),
		Code:  "read_only",
	})
	return true
}

// role names what this node currently is: "standalone" (no WAL), "leader"
// (WAL-backed, writable), or "follower" (read-only replica).
func (s *Server) role() string {
	if s.readOnly() {
		return "follower"
	}
	if _, ok := s.prof().WALStats(); ok {
		return "leader"
	}
	return "standalone"
}

// replicationStatus returns the staleness watermark this node attaches to
// answers, or nil when it is standalone.
func (s *Server) replicationStatus() *sprofile.ReplicationStatus {
	if s.follower != nil {
		st := s.follower.Status()
		return &st
	}
	if st, ok := s.prof().LeaderReplicationStatus(); ok {
		return &st
	}
	return nil
}

// healthWAL is the wal object inside the /healthz document.
type healthWAL struct {
	Segment             uint64 `json:"segment"`
	Offset              int64  `json:"offset"`
	Segments            int    `json:"segments"`
	Fsyncs              uint64 `json:"fsyncs"`
	TailBytes           int64  `json:"tail_bytes"`
	SnapshotSeq         uint64 `json:"snapshot_seq"`
	LastCheckpointAgeMs int64  `json:"last_checkpoint_age_ms"` // -1 = never checkpointed
}

// healthResponse is the full /healthz document; see the README for the
// schema. WAL and Replication are omitted on nodes that have neither.
type healthResponse struct {
	Status          string                      `json:"status"`
	Role            string                      `json:"role"`
	UptimeSeconds   float64                     `json:"uptime_seconds"`
	Version         string                      `json:"version"`
	Commit          string                      `json:"commit"`
	Degraded        bool                        `json:"degraded"`
	WALError        string                      `json:"wal_error,omitempty"`
	CheckpointError string                      `json:"checkpoint_error,omitempty"`
	ReplicationErr  string                      `json:"replication_error,omitempty"`
	WAL             *healthWAL                  `json:"wal,omitempty"`
	Replication     *sprofile.ReplicationStatus `json:"replication,omitempty"`
	Async           *sprofile.AsyncStats        `json:"async,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := healthResponse{
		Status:        "ok",
		Role:          s.role(),
		UptimeSeconds: time.Since(serverStart).Seconds(),
		Version:       sprofile.Version,
		Commit:        sprofile.Commit,
	}
	p := s.prof()
	if s.degradedNow() {
		// Writes are refused (503 degraded) while the recovery probe tries
		// to roll the log; reads keep serving, so the node stays "live" for
		// probes but the status names the impairment.
		resp.Status = "degraded"
		resp.Degraded = true
	}
	if err := p.WALError(); err != nil {
		resp.WALError = err.Error()
	}
	if err := p.CheckpointError(); err != nil {
		// The server keeps serving — the profile and the unreclaimed log
		// tail are intact — but the operator should know the last background
		// checkpoint failed (e.g. a full disk).
		resp.CheckpointError = err.Error()
	}
	if s.follower != nil {
		if err := s.follower.LastError(); err != nil {
			resp.ReplicationErr = err.Error()
		}
	}
	if ws, ok := p.WALStats(); ok {
		hw := &healthWAL{
			Segment:             ws.Segment,
			Offset:              ws.Offset,
			Segments:            ws.Segments,
			Fsyncs:              ws.Fsyncs,
			TailBytes:           ws.TailBytes,
			SnapshotSeq:         ws.SnapshotSeq,
			LastCheckpointAgeMs: -1,
		}
		if !ws.LastCheckpoint.IsZero() {
			hw.LastCheckpointAgeMs = time.Since(ws.LastCheckpoint).Milliseconds()
		}
		resp.WAL = hw
	}
	resp.Replication = s.replicationStatus()
	if s.async != nil {
		st := s.async.Stats()
		resp.Async = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint snapshots the profile into the WAL directory and deletes
// the log segments the snapshot covers. Readers are never blocked; writers
// pause only while the in-memory state is captured.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		// Degraded: the checkpoint would rotate onto the failed log and
		// report the WAL fault as its own; 503 degraded + Retry-After names
		// the real condition instead of a misleading checkpoint error.
		return
	}
	if s.async != nil {
		// Drain the mailboxes first so the snapshot covers everything the
		// server has acknowledged, not just what the appliers got to.
		if err := s.async.Flush(); err != nil {
			writeProfileError(w, err)
			return
		}
	}
	if err := s.prof().Checkpoint(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "checkpoint failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"checkpointed": true})
}

// handleFlush drains the async ingest plane: every event acknowledged before
// the POST is applied and visible to reads when it returns, and any deferred
// apply error (unknown key on remove, capacity exhaustion, strict violation)
// is reported here through the usual taxonomy. Without async ingest it
// degrades to a WAL sync, so callers can use it unconditionally as a
// durability+visibility barrier.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		// Degraded: the sync would just re-report the sticky WAL fault as a
		// 500 wal_append; 503 degraded + Retry-After is the actionable truth.
		return
	}
	if s.async != nil {
		if err := s.async.Flush(); err != nil {
			writeProfileError(w, err)
			return
		}
	} else if err := s.prof().Sync(); err != nil {
		writeProfileError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"flushed": true})
}

// decodeEvents decodes a POST /v1/events body: either a single
// {object, action} event or a JSON array of them, as the package doc
// promises, told apart by the leading token. A syntax error fails the whole
// body; invalid is the first well-formed event the profile refuses, and
// events holds the events before it.
func decodeEvents(d *eventDecoder, body []byte, maxBatch int, out []sprofile.KeyedTuple[string]) (events []sprofile.KeyedTuple[string], invalid, err error) {
	if i := skipSpace(body, 0); i < len(body) && body[i] == '[' {
		events, invalid, err = d.array(body, maxBatch, out)
		if err != nil {
			return events, nil, fmt.Errorf("invalid event array: %w", err)
		}
		return events, invalid, nil
	}
	ev, invalid, err := d.one(body)
	if err != nil {
		return out, nil, fmt.Errorf("body must be one {object, action} event or a JSON array of them: %w", err)
	}
	if invalid != nil {
		return out, invalid, nil
	}
	return append(out, ev), nil, nil
}

// strictDecode decodes the one JSON document r holds into v, rejecting
// unknown fields and anything but whitespace after the document.
func strictDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: unexpected data after the document", errMalformed)
	}
	return nil
}

func parseAction(b []byte) (sprofile.Action, error) {
	switch string(b) {
	case "add", "+", "1":
		return sprofile.ActionAdd, nil
	case "remove", "-", "-1":
		return sprofile.ActionRemove, nil
	default:
		return 0, fmt.Errorf("%w: unknown action %q (want \"add\" or \"remove\")", sprofile.ErrInvalidAction, b)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	sc := bulkPool.Get().(*bulkScratch)
	defer putBulkScratch(sc)
	events, invalid, err := decodeEvents(&sc.dec, body, s.maxBatch, sc.events)
	sc.events = events
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	applied := 0
	for _, e := range events {
		if err := s.keyed().Apply(e.Key, e.Action); err != nil {
			status, code := errorCode(err)
			resp := eventsResponse{Applied: applied, Error: err.Error(), Code: code}
			if errors.Is(err, sprofile.ErrWALAppend) {
				// The update is in the profile but not in the log.
				resp.Applied++
			}
			setRetryHint(w, err)
			writeJSON(w, status, resp)
			return
		}
		applied++
	}
	if invalid != nil {
		code := "bad_request"
		if errors.Is(invalid, sprofile.ErrInvalidAction) {
			code = "invalid_action"
		}
		writeJSON(w, http.StatusBadRequest, eventsResponse{Applied: applied, Error: invalid.Error(), Code: code})
		return
	}
	// In async mode Applied means accepted-and-enqueued: the appliers fsync
	// per drained batch, and stream-dependent errors surface on
	// POST /v1/admin/flush instead of here.
	if s.async == nil {
		if err := s.prof().Sync(); err != nil {
			writeJSON(w, http.StatusInternalServerError, eventsResponse{
				Applied: applied,
				Error:   fmt.Sprintf("events applied but log sync failed: %v", err),
				Code:    "wal_append",
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Applied: applied})
}

// bulkScratch is the pooled per-request buffer set of both ingest routes:
// the line scanner's initial buffer, the event decoder's unescape buffer
// and the event chunk handed to ApplyBatch. Pooling keeps the decode free
// of per-event allocations (the decoded key strings themselves are the only
// per-event cost, and only new keys are retained by the profile).
type bulkScratch struct {
	line   []byte
	dec    eventDecoder
	events []sprofile.KeyedTuple[string]
}

var bulkPool = sync.Pool{
	New: func() any { return &bulkScratch{line: make([]byte, 64<<10)} },
}

func putBulkScratch(sc *bulkScratch) {
	// Zero the full backing array, not just the live prefix — the bulk
	// flush truncates after each chunk, so the pooled capacity would
	// otherwise keep pinning the last flushed chunk's key strings.
	clear(sc.events[:cap(sc.events)])
	sc.events = sc.events[:0]
	if cap(sc.dec.buf) > maxPooledUnescape {
		sc.dec.buf = nil
	}
	bulkPool.Put(sc)
}

// maxBulkLine bounds one NDJSON line. It is deliberately larger than the
// per-object limit so an oversized key is reported as a per-line 400 (with
// its line number) instead of an opaque scanner failure; checkObject
// enforces the real bound.
const maxBulkLine = 4 << 20

// checkObject rejects object keys the write-ahead log could not journal —
// appending one would fail after the in-memory update and report a
// divergence, so the front door refuses it outright (whether or not a WAL
// is configured, for consistency).
func checkObject(object string) error {
	if object == "" {
		return fmt.Errorf("%w: event with empty object", sprofile.ErrOutOfRange)
	}
	if len(object) > wal.MaxKeyLen {
		return fmt.Errorf("object of %d bytes exceeds the %d-byte limit: %w", len(object), wal.MaxKeyLen, sprofile.ErrOutOfRange)
	}
	return nil
}

// handleBulk ingests an NDJSON stream — one {"object", "action"} event per
// line — through the profile's delta-batched fast path: events are decoded
// into chunks of at most MaxBatch, each chunk is coalesced into net
// per-key deltas, applied with one stripe-lock acquisition per stripe and
// one block walk per distinct key, and (with a WAL) journaled as one batch
// record per stripe with one group-commit fsync per chunk. Blank lines are
// skipped. The response reports how many events were applied; on a decode
// error it also names the failing line. A bad line rejects its own pending
// chunk (those events are never applied), while chunks flushed earlier in
// the stream stay applied — the Applied count is always accurate.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		return
	}
	sc := bulkPool.Get().(*bulkScratch)
	defer putBulkScratch(sc)
	scanner := bufio.NewScanner(r.Body)
	scanner.Buffer(sc.line, maxBulkLine)

	applied := 0
	lineNo := 0
	flush := func() error {
		n, err := s.applyBatch(sc.events)
		applied += n
		sc.events = sc.events[:0]
		return err
	}
	fail := func(status int, format string, args ...any) {
		writeJSON(w, status, eventsResponse{Applied: applied, Error: fmt.Sprintf(format, args...), Code: statusCode(status)})
	}
	for scanner.Scan() {
		lineNo++
		data := scanner.Bytes()
		if skipSpace(data, 0) == len(data) {
			continue
		}
		ev, invalid, err := sc.dec.one(data)
		if err == nil {
			err = invalid
		}
		if err != nil {
			fail(http.StatusBadRequest, "line %d: %v", lineNo, err)
			return
		}
		sc.events = append(sc.events, ev)
		if len(sc.events) >= s.maxBatch {
			if err := flush(); err != nil {
				s.writeBulkApplyError(w, applied, err)
				return
			}
		}
	}
	if err := scanner.Err(); err != nil {
		// Apply nothing further: the partial chunk may be mid-stream garbage.
		fail(http.StatusBadRequest, "reading stream at line %d: %v", lineNo, err)
		return
	}
	if err := flush(); err != nil {
		s.writeBulkApplyError(w, applied, err)
		return
	}
	writeJSON(w, http.StatusOK, eventsResponse{Applied: applied})
}

// writeBulkApplyError maps an ApplyBatch failure onto the same taxonomy
// statuses and codes the per-event endpoint uses.
func (s *Server) writeBulkApplyError(w http.ResponseWriter, applied int, err error) {
	status, code := errorCode(err)
	setRetryHint(w, err)
	writeJSON(w, status, eventsResponse{Applied: applied, Error: err.Error(), Code: code})
}
