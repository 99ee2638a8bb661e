package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, capacity int) *httptest.Server {
	t.Helper()
	s, err := New(Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postEvents(t *testing.T, ts *httptest.Server, body string) (*http.Response, eventsResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Fatalf("New accepted zero capacity")
	}
	if _, err := New(Config{Capacity: -5}); err == nil {
		t.Fatalf("New accepted negative capacity")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, 10)
	var out map[string]any
	resp := getJSON(t, ts, "/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, out)
	}
	if _, ok := out["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz missing uptime_seconds: %+v", out)
	}
	if v, ok := out["version"].(string); !ok || v == "" {
		t.Fatalf("healthz missing version: %+v", out)
	}
}

func TestIngestAndStats(t *testing.T) {
	ts := newTestServer(t, 100)
	events := `[
		{"object":"video-1","action":"add"},
		{"object":"video-1","action":"add"},
		{"object":"video-1","action":"add"},
		{"object":"video-2","action":"add"},
		{"object":"video-2","action":"add"},
		{"object":"video-3","action":"add"},
		{"object":"video-3","action":"remove"}
	]`
	resp, out := postEvents(t, ts, events)
	if resp.StatusCode != http.StatusOK || out.Applied != 7 {
		t.Fatalf("events: %d, %+v", resp.StatusCode, out)
	}

	var mode entryResponse
	resp = getJSON(t, ts, "/v1/stats/mode", &mode)
	if resp.StatusCode != http.StatusOK || mode.Object != "video-1" || mode.Frequency != 3 {
		t.Fatalf("mode = %d %+v", resp.StatusCode, mode)
	}

	var top []entryResponse
	resp = getJSON(t, ts, "/v1/stats/top?k=2", &top)
	if resp.StatusCode != http.StatusOK || len(top) != 2 {
		t.Fatalf("top = %d %+v", resp.StatusCode, top)
	}
	if top[0].Object != "video-1" || top[0].Frequency != 3 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Object != "video-2" || top[1].Frequency != 2 {
		t.Fatalf("top[1] = %+v", top[1])
	}

	var count entryResponse
	resp = getJSON(t, ts, "/v1/stats/count?object=video-2", &count)
	if resp.StatusCode != http.StatusOK || count.Frequency != 2 {
		t.Fatalf("count = %d %+v", resp.StatusCode, count)
	}
	resp = getJSON(t, ts, "/v1/stats/count?object=never-seen", &count)
	if resp.StatusCode != http.StatusOK || count.Frequency != 0 {
		t.Fatalf("count of unknown object = %d %+v", resp.StatusCode, count)
	}

	var median entryResponse
	resp = getJSON(t, ts, "/v1/stats/median", &median)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("median = %d", resp.StatusCode)
	}

	var quantile entryResponse
	resp = getJSON(t, ts, "/v1/stats/quantile?q=1", &quantile)
	if resp.StatusCode != http.StatusOK || quantile.Frequency != 3 {
		t.Fatalf("quantile(1) = %d %+v", resp.StatusCode, quantile)
	}

	var dist []map[string]any
	resp = getJSON(t, ts, "/v1/stats/distribution", &dist)
	if resp.StatusCode != http.StatusOK || len(dist) == 0 {
		t.Fatalf("distribution = %d %+v", resp.StatusCode, dist)
	}

	var summary map[string]any
	resp = getJSON(t, ts, "/v1/stats/summary", &summary)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary = %d", resp.StatusCode)
	}
	if summary["tracked"].(float64) != 3 {
		t.Fatalf("summary tracked = %v, want 3", summary["tracked"])
	}
	if summary["total"].(float64) != 5 {
		t.Fatalf("summary total = %v, want 5", summary["total"])
	}
}

func TestIngestValidation(t *testing.T) {
	ts := newTestServer(t, 10)

	resp, _ := postEvents(t, ts, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON accepted: %d", resp.StatusCode)
	}

	resp, out := postEvents(t, ts, `[{"object":"","action":"add"}]`)
	if resp.StatusCode != http.StatusBadRequest || out.Applied != 0 {
		t.Fatalf("empty object accepted: %d %+v", resp.StatusCode, out)
	}

	resp, out = postEvents(t, ts, `[{"object":"a","action":"maybe"}]`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad action accepted: %d %+v", resp.StatusCode, out)
	}

	// Removing an object that was never added resolves to ErrUnknownKey:
	// 404 with the unknown_key taxonomy code.
	resp, out = postEvents(t, ts, `[{"object":"ghost","action":"remove"}]`)
	if resp.StatusCode != http.StatusNotFound || out.Code != "unknown_key" {
		t.Fatalf("remove of unknown object: %d %+v", resp.StatusCode, out)
	}

	// Partial batches report how many events were applied before the error.
	resp, out = postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"b","action":"add"},
		{"object":"c","action":"nope"}
	]`)
	if resp.StatusCode != http.StatusBadRequest || out.Applied != 2 {
		t.Fatalf("partial batch: %d %+v", resp.StatusCode, out)
	}
}

func TestSingleEventForm(t *testing.T) {
	ts := newTestServer(t, 10)
	// The package doc promises "one event or a batch": the single-object
	// form must be accepted, not bounced with a misleading array error.
	resp, out := postEvents(t, ts, `{"object":"solo","action":"add"}`)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 {
		t.Fatalf("single event = %d %+v", resp.StatusCode, out)
	}
	resp, out = postEvents(t, ts, `[{"object":"solo","action":"add"}]`)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 {
		t.Fatalf("array event = %d %+v", resp.StatusCode, out)
	}
	var count entryResponse
	getJSON(t, ts, "/v1/stats/count?object=solo", &count)
	if count.Frequency != 2 {
		t.Fatalf("count after both forms = %+v", count)
	}
	// A single malformed object is still rejected.
	resp, _ = postEvents(t, ts, `{"object":"solo","action":"add","extra":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
	resp, _ = postEvents(t, ts, `{"object":"solo"`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated object accepted: %d", resp.StatusCode)
	}
}

// TestEventsRejectSilentDrops: both /v1/events forms refuse a body that is
// not exactly one event or one array of events, applying nothing.
func TestEventsRejectSilentDrops(t *testing.T) {
	ts := newTestServer(t, 100)
	for _, tc := range silentDropCases {
		array := tc.array
		if array == "" {
			array = "[" + tc.line + "]"
		}
		for form, body := range map[string]string{"single": tc.line, "array": array} {
			t.Run(tc.name+"/"+form, func(t *testing.T) {
				resp, out := postEvents(t, ts, body)
				if resp.StatusCode != http.StatusBadRequest || out.Applied != 0 {
					t.Fatalf("status %d applied %d (%s), want 400 with nothing applied", resp.StatusCode, out.Applied, out.Error)
				}
			})
		}
	}
	var summary map[string]any
	getJSON(t, ts, "/v1/stats/summary", &summary)
	if summary["total"].(float64) != 0 {
		t.Fatalf("summary after rejected bodies = %+v, want total 0", summary)
	}
}

func TestMinBottomMajority(t *testing.T) {
	ts := newTestServer(t, 4)
	resp, out := postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"b","action":"add"}
	]`)
	if resp.StatusCode != http.StatusOK || out.Applied != 4 {
		t.Fatalf("ingest = %d %+v", resp.StatusCode, out)
	}

	// Two of four slots are untracked, so the minimum frequency is zero with
	// two ties.
	var min entryResponse
	if resp := getJSON(t, ts, "/v1/stats/min", &min); resp.StatusCode != http.StatusOK {
		t.Fatalf("min = %d", resp.StatusCode)
	}
	if min.Frequency != 0 || min.Ties != 2 {
		t.Fatalf("min = %+v, want frequency 0 with 2 ties", min)
	}

	var bottom []entryResponse
	if resp := getJSON(t, ts, "/v1/stats/bottom?k=3", &bottom); resp.StatusCode != http.StatusOK {
		t.Fatalf("bottom = %d", resp.StatusCode)
	}
	if len(bottom) != 3 || bottom[0].Frequency != 0 || bottom[2].Frequency != 1 {
		t.Fatalf("bottom = %+v", bottom)
	}
	if resp, err := http.Get(ts.URL + "/v1/stats/bottom?k=0"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bottom with k=0 = %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// a holds 3 of 4 counts: a strict majority.
	var maj majorityResponse
	if resp := getJSON(t, ts, "/v1/stats/majority", &maj); resp.StatusCode != http.StatusOK {
		t.Fatalf("majority = %d", resp.StatusCode)
	}
	if !maj.Majority || maj.Object != "a" || maj.Frequency != 3 {
		t.Fatalf("majority = %+v", maj)
	}

	// Level the counts: no strict majority any more.
	postEvents(t, ts, `[{"object":"b","action":"add"},{"object":"b","action":"add"}]`)
	if resp := getJSON(t, ts, "/v1/stats/majority", &maj); resp.StatusCode != http.StatusOK {
		t.Fatalf("majority after levelling = %d", resp.StatusCode)
	}
	if maj.Majority {
		t.Fatalf("majority after levelling = %+v, want none", maj)
	}
}

// TestParallelIngestAndQuery hammers the mutex-free hot path from many
// goroutines — writers on disjoint keys, readers across every stats route —
// and then verifies no update was lost. With -race this doubles as the
// server-layer concurrency conformance test.
func TestParallelIngestAndQuery(t *testing.T) {
	ts := newTestServer(t, 1000)
	const writers = 8
	const readers = 4
	const perWriter = 60
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf(`{"object":"w%d-%d","action":"add"}`, w, i%10)
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("writer %d: status %d", w, resp.StatusCode)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	routes := []string{
		"/v1/stats/mode", "/v1/stats/min", "/v1/stats/top?k=5", "/v1/stats/bottom?k=5",
		"/v1/stats/median", "/v1/stats/quantile?q=0.9", "/v1/stats/majority",
		"/v1/stats/distribution", "/v1/stats/summary", "/v1/export",
	}
	for rdr := 0; rdr < readers; rdr++ {
		go func(rdr int) {
			for i := 0; i < 40; i++ {
				resp, err := http.Get(ts.URL + routes[(rdr+i)%len(routes)])
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("reader: %s -> %d", routes[(rdr+i)%len(routes)], resp.StatusCode)
					return
				}
			}
			errCh <- nil
		}(rdr)
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	var summary map[string]any
	getJSON(t, ts, "/v1/stats/summary", &summary)
	if got := summary["adds"].(float64); got != writers*perWriter {
		t.Fatalf("adds = %v, want %d", got, writers*perWriter)
	}
	if got := summary["total"].(float64); got != writers*perWriter {
		t.Fatalf("total = %v, want %d", got, writers*perWriter)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	ts := newTestServer(t, 2)
	postEvents(t, ts, `[{"object":"a","action":"add"},{"object":"b","action":"add"}]`)
	resp, out := postEvents(t, ts, `[{"object":"c","action":"add"}]`)
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-capacity add: %d %+v", resp.StatusCode, out)
	}
}

func TestBatchLimit(t *testing.T) {
	s, err := New(Config{Capacity: 10, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := `[
		{"object":"a","action":"add"},
		{"object":"b","action":"add"},
		{"object":"c","action":"add"}
	]`
	resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch accepted: %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, 10)
	paths := []string{
		"/v1/stats/mode", "/v1/stats/top", "/v1/stats/min", "/v1/stats/bottom",
		"/v1/stats/majority", "/v1/stats/count", "/v1/stats/median",
		"/v1/stats/quantile", "/v1/stats/distribution", "/v1/stats/summary", "/v1/stats/rank",
		"/healthz",
	}
	for _, path := range paths {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/events = %d, want 405", resp.StatusCode)
	}
}

func TestQueryParamValidation(t *testing.T) {
	ts := newTestServer(t, 10)
	postEvents(t, ts, `[{"object":"a","action":"add"}]`)
	for _, path := range []string{
		"/v1/stats/top?k=0",
		"/v1/stats/top?k=-1",
		"/v1/stats/top?k=abc",
		"/v1/stats/count",
		"/v1/stats/quantile?q=2",
		"/v1/stats/quantile?q=abc",
		"/v1/stats/quantile",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t, 1000)
	const clients = 8
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(id int) {
			for i := 0; i < 50; i++ {
				body := fmt.Sprintf(`[{"object":"user-%d-%d","action":"add"}]`, id, i%20)
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if i%10 == 0 {
					r, err := http.Get(ts.URL + "/v1/stats/mode")
					if err != nil {
						errCh <- err
						return
					}
					r.Body.Close()
				}
			}
			errCh <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	var summary map[string]any
	getJSON(t, ts, "/v1/stats/summary", &summary)
	if got := summary["adds"].(float64); got != clients*50 {
		t.Fatalf("adds = %v, want %d", got, clients*50)
	}
}
