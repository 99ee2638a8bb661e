package server

import (
	"net/http"
	"strconv"
	"time"

	"sprofile"
)

type (
	keyedQuery  = sprofile.KeyedQuery[string]
	keyedResult = sprofile.KeyedQueryResult[string]
)

// queryLimit bounds the per-request list arguments of a composite query so a
// single POST cannot ask for an unbounded amount of work; it reuses the
// server's batch bound.
func (s *Server) queryLimit() int { return s.maxBatch }

// serveQuery is the one read path of the HTTP API: POST /v1/query and every
// GET /v1/stats/* route pass through it. parse builds the keyed query from
// the request, or writes a 400 bad_request and reports false; QueryKeys
// answers it from one cut of the profile, and render shapes the answer into
// the route's response body. Profile errors, from QueryKeys or render,
// follow the taxonomy mapping of errorCode: a malformed selection is 400
// invalid_query, an unanswerable statistic on an empty profile is 422
// empty_profile.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, method string,
	parse func(http.ResponseWriter, *http.Request) (keyedQuery, bool), render func(keyedResult) (any, error)) {
	if r.Method != method {
		writeError(w, http.StatusMethodNotAllowed, "use %s", method)
		return
	}
	q, ok := parse(w, r)
	if !ok {
		return
	}
	if limit := s.queryLimit(); len(q.Count) > limit || len(q.Quantiles) > limit || len(q.KthLargest) > limit {
		writeError(w, http.StatusBadRequest, "query lists are bounded to %d entries each", limit)
		return
	}
	body, err := s.answerQuery(q, render)
	if err != nil {
		writeProfileError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// answerQuery answers q and renders the result. It is kept out of
// serveQuery so that the large query and result values are off the stack
// before the response is encoded: a deadline-wrapped handler runs on a
// fresh goroutine, and each doubling of its small initial stack copies it.
func (s *Server) answerQuery(q keyedQuery, render func(keyedResult) (any, error)) (any, error) {
	start := time.Now()
	res, err := s.keyed().QueryKeys(q)
	if err != nil {
		return nil, err
	}
	observeQuery(q, start)
	return render(res)
}

// handleQuery answers POST /v1/query: ONE composite, atomic multi-statistic
// query per request. The body is a sprofile.KeyedQuery in JSON — any subset
// of count/mode/min/top_k/bottom_k/kth_largest/median/quantiles/majority/
// distribution/summary — and the response is the matching
// sprofile.KeyedQueryResult, every statistic answered from one cut of the
// profile (see KeyedConcurrent.QueryKeys). A dashboard that used to issue N
// GETs — and could observe N different profiles under concurrent ingest —
// issues one POST and gets one consistent answer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, http.MethodPost, decodeQuery, func(res keyedResult) (any, error) {
		// On replicated deployments the answer carries the staleness
		// watermark of the node that produced it, so the caller can judge it
		// against a freshness budget after the fact (or demand one upfront
		// via the X-Sprofile-Max-Staleness-Ms header).
		res.Replication = s.replicationStatus()
		return res, nil
	})
}

// decodeQuery reads a POST /v1/query body.
func decodeQuery(w http.ResponseWriter, r *http.Request) (q keyedQuery, ok bool) {
	if err := strictDecode(r.Body, &q); err != nil {
		writeError(w, http.StatusBadRequest, "invalid query document: %v", err)
		return q, false
	}
	return q, true
}

// statRoute is one GET /v1/stats/* route: a view of POST /v1/query with one
// statistic selected. parse reads the URL parameters into that one-field
// query, and render keeps the route's own response shape.
type statRoute struct {
	path   string
	parse  func(http.ResponseWriter, *http.Request) (keyedQuery, bool)
	render func(keyedResult) (any, error)
}

// entryResponse is the wire form of a single statistics answer.
type entryResponse struct {
	Object    string `json:"object"`
	Frequency int64  `json:"frequency"`
	Ties      int    `json:"ties,omitempty"`
}

// majorityResponse answers GET /v1/stats/majority; Object and Frequency are
// meaningful only when Majority is true.
type majorityResponse struct {
	Object    string `json:"object,omitempty"`
	Frequency int64  `json:"frequency,omitempty"`
	Majority  bool   `json:"majority"`
}

// rankResponse answers GET /v1/stats/rank.
type rankResponse struct {
	Object     string  `json:"object"`
	Frequency  int64   `json:"frequency"`
	Rank       int     `json:"rank"`       // 1 = most frequent
	Percentile float64 `json:"percentile"` // fraction of slots with frequency <= this object's
}

// registerStatRoutes mounts the GET /v1/stats/* table; called from routes().
func (s *Server) registerStatRoutes() {
	for _, rt := range s.statRoutes() {
		s.mux.Handle(rt.path, s.deadlineFunc(func(w http.ResponseWriter, r *http.Request) {
			s.serveQuery(w, r, http.MethodGet, rt.parse, rt.render)
		}))
	}
}

// statRoutes is the GET statistics table.
func (s *Server) statRoutes() []statRoute {
	return []statRoute{
		{"/v1/stats/mode", fixed(keyedQuery{Mode: true}), func(res keyedResult) (any, error) {
			return entryResponse{Object: res.Mode.Key, Frequency: res.Mode.Frequency, Ties: res.Mode.Ties}, nil
		}},
		{"/v1/stats/min", fixed(keyedQuery{Min: true}), func(res keyedResult) (any, error) {
			return entryResponse{Object: res.Min.Key, Frequency: res.Min.Frequency, Ties: res.Min.Ties}, nil
		}},
		{"/v1/stats/top", func(w http.ResponseWriter, r *http.Request) (keyedQuery, bool) {
			k, ok := parseK(w, r)
			return keyedQuery{TopK: k}, ok
		}, func(res keyedResult) (any, error) { return entryList(res.TopK), nil }},
		{"/v1/stats/bottom", func(w http.ResponseWriter, r *http.Request) (keyedQuery, bool) {
			k, ok := parseK(w, r)
			return keyedQuery{BottomK: k}, ok
		}, func(res keyedResult) (any, error) { return entryList(res.BottomK), nil }},
		{"/v1/stats/count", func(w http.ResponseWriter, r *http.Request) (keyedQuery, bool) {
			object, ok := parseObject(w, r)
			return keyedQuery{Count: []string{object}}, ok
		}, func(res keyedResult) (any, error) {
			return entryResponse{Object: res.Counts[0].Key, Frequency: res.Counts[0].Frequency}, nil
		}},
		{"/v1/stats/median", fixed(keyedQuery{Median: true}), func(res keyedResult) (any, error) {
			return entryResponse{Object: res.Median.Key, Frequency: res.Median.Frequency}, nil
		}},
		{"/v1/stats/quantile", func(w http.ResponseWriter, r *http.Request) (keyedQuery, bool) {
			raw := r.URL.Query().Get("q")
			q, err := strconv.ParseFloat(raw, 64)
			if err != nil || q < 0 || q > 1 {
				writeError(w, http.StatusBadRequest, "q must be a number in [0,1], got %q", raw)
				return keyedQuery{}, false
			}
			return keyedQuery{Quantiles: []float64{q}}, true
		}, func(res keyedResult) (any, error) {
			e := res.Quantiles[0]
			return entryResponse{Object: e.Key, Frequency: e.Frequency}, nil
		}},
		{"/v1/stats/majority", fixed(keyedQuery{Majority: true}), func(res keyedResult) (any, error) {
			m := res.Majority
			return majorityResponse{Object: m.Key, Frequency: m.Frequency, Majority: m.Majority}, nil
		}},
		{"/v1/stats/distribution", fixed(keyedQuery{Distribution: true}), func(res keyedResult) (any, error) {
			return res.Distribution, nil
		}},
		{"/v1/stats/summary", fixed(keyedQuery{Summary: true}), func(res keyedResult) (any, error) {
			sum := res.Summary
			return map[string]any{
				"capacity":             sum.Capacity,
				"tracked":              s.keyed().Tracked(),
				"total":                sum.Total,
				"active":               sum.Active,
				"distinct_frequencies": sum.DistinctFrequencies,
				"max_frequency":        sum.MaxFrequency,
				"min_frequency":        sum.MinFrequency,
				"adds":                 sum.Adds,
				"removes":              sum.Removes,
			}, nil
		}},
		// rank reports where one object sits in the popularity order: its
		// rank among all slots (1 = most frequent) and the fraction of slots
		// at or below its frequency, from the object's count and the
		// histogram of the same cut.
		{"/v1/stats/rank", func(w http.ResponseWriter, r *http.Request) (keyedQuery, bool) {
			object, ok := parseObject(w, r)
			return keyedQuery{Count: []string{object}, Distribution: true}, ok
		}, func(res keyedResult) (any, error) {
			c, m := res.Counts[0], s.keyed().Cap()
			if m == 0 {
				return nil, sprofile.ErrEmptyProfile
			}
			atLeast := 0
			for _, fc := range res.Distribution {
				if fc.Freq >= c.Frequency {
					atLeast += fc.Count
				}
			}
			return rankResponse{
				Object:     c.Key,
				Frequency:  c.Frequency,
				Rank:       atLeast,
				Percentile: float64(m-atLeast) / float64(m),
			}, nil
		}},
	}
}

// fixed parses a route that takes no URL parameter.
func fixed(q keyedQuery) func(http.ResponseWriter, *http.Request) (keyedQuery, bool) {
	return func(http.ResponseWriter, *http.Request) (keyedQuery, bool) { return q, true }
}

// parseK reads the ?k= parameter of the top and bottom routes, defaulting
// to 10. The bool reports whether the value was valid (an error has been
// written otherwise).
func parseK(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return 10, true
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		writeError(w, http.StatusBadRequest, "k must be a positive integer, got %q", raw)
		return 0, false
	}
	return k, true
}

// parseObject reads the required ?object= parameter of the count and rank
// routes, writing a 400 when it is missing.
func parseObject(w http.ResponseWriter, r *http.Request) (string, bool) {
	object := r.URL.Query().Get("object")
	if object == "" {
		writeError(w, http.StatusBadRequest, "missing object parameter")
		return "", false
	}
	return object, true
}

// entryList renders a top or bottom answer.
func entryList(entries []sprofile.KeyedEntry[string]) []entryResponse {
	out := make([]entryResponse, len(entries))
	for i, e := range entries {
		out[i] = entryResponse{Object: e.Key, Frequency: e.Frequency}
	}
	return out
}
