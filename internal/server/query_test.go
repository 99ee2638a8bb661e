package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sprofile"
)

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, sprofile.KeyedQueryResult[string], errorResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res sprofile.KeyedQueryResult[string]
	var errRes errorResponse
	var decodeErr error
	if resp.StatusCode == http.StatusOK {
		decodeErr = json.NewDecoder(resp.Body).Decode(&res)
	} else {
		decodeErr = json.NewDecoder(resp.Body).Decode(&errRes)
	}
	if decodeErr != nil {
		t.Fatalf("decoding /v1/query response: %v", decodeErr)
	}
	return resp, res, errRes
}

// TestQueryEndpoint drives one composite query through POST /v1/query and
// checks every requested statistic against the individual endpoints' truth.
func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t, 10)
	for _, body := range []string{
		`[{"object":"a","action":"add"},{"object":"a","action":"add"},{"object":"a","action":"add"}]`,
		`[{"object":"b","action":"add"},{"object":"b","action":"add"}]`,
		`[{"object":"c","action":"add"}]`,
	} {
		resp, out := postEvents(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding events: %d %+v", resp.StatusCode, out)
		}
	}

	resp, res, _ := postQuery(t, ts, `{
		"count": ["a", "ghost"],
		"mode": true,
		"min": true,
		"top_k": 2,
		"median": true,
		"quantiles": [0, 1],
		"majority": true,
		"distribution": true,
		"summary": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if len(res.Counts) != 2 || res.Counts[0].Key != "a" || res.Counts[0].Frequency != 3 {
		t.Fatalf("counts = %+v", res.Counts)
	}
	if res.Counts[1].Key != "ghost" || res.Counts[1].Frequency != 0 {
		t.Fatalf("unknown key count = %+v, want frequency 0", res.Counts[1])
	}
	if res.Mode == nil || res.Mode.Key != "a" || res.Mode.Frequency != 3 || res.Mode.Ties != 1 {
		t.Fatalf("mode = %+v", res.Mode)
	}
	if res.Min == nil || res.Min.Frequency != 0 {
		t.Fatalf("min = %+v", res.Min)
	}
	if len(res.TopK) != 2 || res.TopK[0].Key != "a" || res.TopK[1].Key != "b" {
		t.Fatalf("top_k = %+v", res.TopK)
	}
	if len(res.Quantiles) != 2 || res.Quantiles[0].Q != 0 || res.Quantiles[1].Frequency != 3 {
		t.Fatalf("quantiles = %+v", res.Quantiles)
	}
	if res.Majority == nil || res.Majority.Majority {
		t.Fatalf("majority = %+v, want present and false", res.Majority)
	}
	if res.Median == nil || len(res.Distribution) == 0 || res.Summary == nil {
		t.Fatalf("median/distribution/summary missing: %+v", res)
	}
	if res.Summary.Total != 6 {
		t.Fatalf("summary total = %d, want 6", res.Summary.Total)
	}
	// The distribution and the summary must describe the same cut.
	var total int64
	for _, fc := range res.Distribution {
		total += fc.Freq * int64(fc.Count)
	}
	if total != res.Summary.Total {
		t.Fatalf("distribution sums to %d but summary total is %d", total, res.Summary.Total)
	}
}

// TestQueryEndpointErrors pins the taxonomy → status code mapping of the
// query endpoint and its neighbours.
func TestQueryEndpointErrors(t *testing.T) {
	ts := newTestServer(t, 4)

	// Malformed JSON and unknown fields are plain bad requests.
	resp, _, errRes := postQuery(t, ts, `{"modes": true}`)
	if resp.StatusCode != http.StatusBadRequest || errRes.Code != "bad_request" {
		t.Fatalf("unknown field: %d %+v", resp.StatusCode, errRes)
	}

	// So is anything after the query document.
	for _, body := range []string{`{"mode": true} {"top_k": 1}`, `{"mode": true} x`} {
		resp, _, errRes = postQuery(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest || errRes.Code != "bad_request" {
			t.Fatalf("trailing data %q: %d %+v", body, resp.StatusCode, errRes)
		}
	}

	// A malformed selection is invalid_query.
	resp, _, errRes = postQuery(t, ts, `{"top_k": -1}`)
	if resp.StatusCode != http.StatusBadRequest || errRes.Code != "invalid_query" {
		t.Fatalf("negative top_k: %d %+v", resp.StatusCode, errRes)
	}
	resp, _, errRes = postQuery(t, ts, `{"kth_largest": [99]}`)
	if resp.StatusCode != http.StatusBadRequest || errRes.Code != "invalid_query" {
		t.Fatalf("kth_largest out of range: %d %+v", resp.StatusCode, errRes)
	}

	// GET is not allowed.
	getResp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status %d", getResp.StatusCode)
	}

	// Strict violation: removing a known key at frequency zero is 409.
	for _, body := range []string{
		`[{"object":"a","action":"add"}]`,
		`[{"object":"a","action":"remove"}]`,
		`[{"object":"a","action":"remove"}]`,
	} {
		resp, out := postEvents(t, ts, body)
		if out.Error != "" && resp.StatusCode != http.StatusConflict {
			t.Fatalf("expected 409 strict violation, got %d %+v", resp.StatusCode, out)
		}
		if resp.StatusCode == http.StatusConflict && out.Code != "strict_violation" {
			t.Fatalf("conflict code = %q, want strict_violation", out.Code)
		}
	}
}

// TestQueryEndpointAtomicUnderIngest hammers the server with concurrent
// ingest while issuing composite queries, and requires every answer to be
// internally consistent — invariants that only hold when all statistics come
// from one cut.
func TestQueryEndpointAtomicUnderIngest(t *testing.T) {
	ts := newTestServer(t, 64)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []string{"w", "x", "y", "z"}
			for i := 0; !stop.Load(); i++ {
				key := keys[(i+g)%len(keys)]
				resp, err := http.Post(ts.URL+"/v1/events", "application/json",
					strings.NewReader(`{"object":"`+key+`","action":"add"}`))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		resp, res, errRes := postQuery(t, ts, `{"mode":true,"min":true,"top_k":1,"quantiles":[1],"distribution":true,"summary":true}`)
		if resp.StatusCode != http.StatusOK {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("query status %d: %+v", resp.StatusCode, errRes)
		}
		if res.Mode.Frequency != res.Summary.MaxFrequency {
			t.Errorf("mode %d != summary max %d (different cuts)", res.Mode.Frequency, res.Summary.MaxFrequency)
		}
		if res.TopK[0].Frequency != res.Mode.Frequency {
			t.Errorf("top_k[0] %d != mode %d", res.TopK[0].Frequency, res.Mode.Frequency)
		}
		if res.Quantiles[0].Frequency != res.Summary.MaxFrequency {
			t.Errorf("q=1 %d != summary max %d", res.Quantiles[0].Frequency, res.Summary.MaxFrequency)
		}
		var total int64
		for _, fc := range res.Distribution {
			total += fc.Freq * int64(fc.Count)
		}
		if total != res.Summary.Total {
			t.Errorf("distribution sums to %d but summary total is %d", total, res.Summary.Total)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// fetch sends req and returns the response status and body.
func fetch(t *testing.T, req *http.Request) (int, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// decodeAny decodes a JSON document generically, for comparing bodies.
func decodeAny(t *testing.T, raw []byte) any {
	t.Helper()
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return out
}

// TestStatRoutesMatchQuery holds every GET /v1/stats/* route to the answer
// POST /v1/query gives for the same selection on a quiet server: a route's
// body is a projection of that answer (written out here, independently of
// the server's own rendering), and a failed query fails the route with the
// same status and body.
func TestStatRoutesMatchQuery(t *testing.T) {
	type projection func(res sprofile.KeyedQueryResult[string], tracked int) (int, any)
	entry := func(e sprofile.KeyedEntry[string]) map[string]any {
		return map[string]any{"object": e.Key, "frequency": e.Frequency}
	}
	extreme := func(x *sprofile.KeyedExtreme[string]) map[string]any {
		m := entry(x.KeyedEntry)
		m["ties"] = x.Ties
		return m
	}
	list := func(es []sprofile.KeyedEntry[string]) []any {
		out := []any{}
		for _, e := range es {
			out = append(out, entry(e))
		}
		return out
	}
	rank := func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
		c := res.Counts[0]
		slots, atLeast := 0, 0
		for _, fc := range res.Distribution {
			slots += fc.Count
			if fc.Freq >= c.Frequency {
				atLeast += fc.Count
			}
		}
		if slots == 0 {
			return http.StatusUnprocessableEntity, errorResponse{Error: sprofile.ErrEmptyProfile.Error(), Code: "empty_profile"}
		}
		return http.StatusOK, map[string]any{"object": c.Key, "frequency": c.Frequency,
			"rank": atLeast, "percentile": float64(slots-atLeast) / float64(slots)}
	}
	routes := []struct {
		get, query string
		project    projection
	}{
		{"/v1/stats/mode", `{"mode":true}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, extreme(res.Mode)
		}},
		{"/v1/stats/min", `{"min":true}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, extreme(res.Min)
		}},
		{"/v1/stats/top", `{"top_k":10}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, list(res.TopK)
		}},
		{"/v1/stats/top?k=2", `{"top_k":2}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, list(res.TopK)
		}},
		{"/v1/stats/bottom?k=3", `{"bottom_k":3}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, list(res.BottomK)
		}},
		{"/v1/stats/count?object=a", `{"count":["a"]}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, entry(res.Counts[0])
		}},
		{"/v1/stats/count?object=ghost", `{"count":["ghost"]}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, map[string]any{"object": "ghost", "frequency": 0}
		}},
		{"/v1/stats/median", `{"median":true}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, entry(*res.Median)
		}},
		{"/v1/stats/quantile?q=0.9", `{"quantiles":[0.9]}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, entry(res.Quantiles[0].KeyedEntry)
		}},
		{"/v1/stats/majority", `{"majority":true}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			if !res.Majority.Majority {
				return http.StatusOK, map[string]any{"majority": false}
			}
			m := entry(res.Majority.KeyedEntry)
			m["majority"] = true
			return http.StatusOK, m
		}},
		{"/v1/stats/distribution", `{"distribution":true}`, func(res sprofile.KeyedQueryResult[string], _ int) (int, any) {
			return http.StatusOK, res.Distribution
		}},
		{"/v1/stats/summary", `{"summary":true}`, func(res sprofile.KeyedQueryResult[string], tracked int) (int, any) {
			s := res.Summary
			return http.StatusOK, map[string]any{
				"capacity": s.Capacity, "tracked": tracked, "total": s.Total, "active": s.Active,
				"distinct_frequencies": s.DistinctFrequencies, "max_frequency": s.MaxFrequency,
				"min_frequency": s.MinFrequency, "adds": s.Adds, "removes": s.Removes,
			}
		}},
		{"/v1/stats/rank?object=a", `{"count":["a"],"distribution":true}`, rank},
		{"/v1/stats/rank?object=ghost", `{"count":["ghost"],"distribution":true}`, rank},
	}

	busy := newTestServer(t, 8)
	postEvents(t, busy, `[{"object":"a","action":"add"},{"object":"a","action":"add"},
		{"object":"a","action":"add"},{"object":"a","action":"add"},
		{"object":"b","action":"add"},{"object":"c","action":"add"}]`)
	// New refuses a zero capacity, so the profile with no slots, on which
	// the rank statistics fail with 422 empty_profile, is wired up directly.
	keyed, err := sprofile.BuildKeyed[string](0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { keyed.Close() })
	noSlots := &Server{profile: keyed, maxBatch: 10_000, mux: http.NewServeMux()}
	noSlots.initGuards(Config{})
	noSlots.routes()
	empty := httptest.NewServer(noSlots)
	t.Cleanup(empty.Close)

	unprocessable := 0
	for _, fx := range []struct {
		name    string
		ts      *httptest.Server
		tracked int
	}{
		{"busy", busy, 3},
		{"fresh", newTestServer(t, 4), 0},
		{"no slots", empty, 0},
	} {
		for _, rt := range routes {
			get, err := http.NewRequest(http.MethodGet, fx.ts.URL+rt.get, nil)
			if err != nil {
				t.Fatal(err)
			}
			post, err := http.NewRequest(http.MethodPost, fx.ts.URL+"/v1/query", strings.NewReader(rt.query))
			if err != nil {
				t.Fatal(err)
			}
			gotStatus, got := fetch(t, get)
			postStatus, posted := fetch(t, post)
			wantStatus, want := postStatus, decodeAny(t, posted)
			if postStatus == http.StatusOK {
				var res sprofile.KeyedQueryResult[string]
				if err := json.Unmarshal(posted, &res); err != nil {
					t.Fatal(err)
				}
				var v any
				wantStatus, v = rt.project(res, fx.tracked)
				raw, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				want = decodeAny(t, raw)
			}
			if wantStatus == http.StatusUnprocessableEntity {
				unprocessable++
			}
			if gotStatus != wantStatus || !reflect.DeepEqual(decodeAny(t, got), want) {
				t.Errorf("%s: GET %s = %d %s, want %d %v (POST %s = %d %s)",
					fx.name, rt.get, gotStatus, got, wantStatus, want, rt.query, postStatus, posted)
			}
		}
	}
	if unprocessable == 0 {
		t.Fatal("no route answered 422 on the profile with no slots")
	}
}
