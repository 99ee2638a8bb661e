package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	ts := newTestServer(t, 100)
	postEvents(t, ts, `[
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"a","action":"add"},
		{"object":"b","action":"add"},
		{"object":"b","action":"add"},
		{"object":"c","action":"add"},
		{"object":"c","action":"remove"}
	]`)

	var doc exportDoc
	resp := getJSON(t, ts, "/v1/export", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d", resp.StatusCode)
	}
	if doc.Capacity != 100 {
		t.Fatalf("export capacity = %d", doc.Capacity)
	}
	// Only objects with positive frequency appear, most frequent first.
	if len(doc.Objects) != 2 {
		t.Fatalf("export objects = %+v", doc.Objects)
	}
	if doc.Objects[0].Object != "a" || doc.Objects[0].Frequency != 3 {
		t.Fatalf("export[0] = %+v", doc.Objects[0])
	}
	if doc.Objects[1].Object != "b" || doc.Objects[1].Frequency != 2 {
		t.Fatalf("export[1] = %+v", doc.Objects[1])
	}

	// Import the document into a fresh server and verify the state matches.
	fresh := newTestServer(t, 100)
	body, _ := json.Marshal(doc)
	importResp, err := http.Post(fresh.URL+"/v1/import", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer importResp.Body.Close()
	if importResp.StatusCode != http.StatusOK {
		t.Fatalf("import = %d", importResp.StatusCode)
	}
	var mode entryResponse
	getJSON(t, fresh, "/v1/stats/mode", &mode)
	if mode.Object != "a" || mode.Frequency != 3 {
		t.Fatalf("mode after import = %+v", mode)
	}
	var count entryResponse
	getJSON(t, fresh, "/v1/stats/count?object=b", &count)
	if count.Frequency != 2 {
		t.Fatalf("count(b) after import = %+v", count)
	}
}

func TestImportValidation(t *testing.T) {
	ts := newTestServer(t, 10)
	cases := map[string]string{
		"not json":           `nope`,
		"empty object":       `{"objects":[{"object":"","frequency":1}]}`,
		"negative frequency": `{"objects":[{"object":"x","frequency":-2}]}`,
		"trailing data":      `{"objects":[{"object":"x","frequency":1}]} {"objects":[]}`,
		"unknown field":      `{"objects":[{"object":"x","frequency":1,"weight":2}]}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/import", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: import = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestImportOverCapacity(t *testing.T) {
	ts := newTestServer(t, 2)
	body := `{"objects":[
		{"object":"a","frequency":1},
		{"object":"b","frequency":1},
		{"object":"c","frequency":1}
	]}`
	resp, err := http.Post(ts.URL+"/v1/import", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-capacity import = %d, want 507", resp.StatusCode)
	}
}

func TestRankEndpoint(t *testing.T) {
	ts := newTestServer(t, 10)
	postEvents(t, ts, `[
		{"object":"popular","action":"add"},
		{"object":"popular","action":"add"},
		{"object":"popular","action":"add"},
		{"object":"niche","action":"add"}
	]`)

	var rank rankResponse
	resp := getJSON(t, ts, "/v1/stats/rank?object=popular", &rank)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank = %d", resp.StatusCode)
	}
	if rank.Frequency != 3 || rank.Rank != 1 {
		t.Fatalf("rank(popular) = %+v", rank)
	}
	getJSON(t, ts, "/v1/stats/rank?object=niche", &rank)
	if rank.Frequency != 1 || rank.Rank != 2 {
		t.Fatalf("rank(niche) = %+v", rank)
	}
	// Unknown objects count as frequency zero and rank behind every active one.
	getJSON(t, ts, "/v1/stats/rank?object=ghost", &rank)
	if rank.Frequency != 0 || rank.Rank != 10 {
		t.Fatalf("rank(ghost) = %+v", rank)
	}

	// Validation.
	resp, err := http.Get(ts.URL + "/v1/stats/rank")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rank without object = %d", resp.StatusCode)
	}
}

func TestExportImportMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, 10)
	resp, err := http.Post(ts.URL+"/v1/export", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/export = %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/import")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/import = %d", getResp.StatusCode)
	}
	rankResp, err := http.Post(ts.URL+"/v1/stats/rank", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	rankResp.Body.Close()
	if rankResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats/rank = %d", rankResp.StatusCode)
	}
}

// httptest server reuse guard: ensure the new routes do not shadow existing
// ones (mux registration panics on duplicates, so constructing a server is
// enough, but exercise one old and one new route together for good measure).
func TestRoutesCoexist(t *testing.T) {
	s, err := New(Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export on fresh server = %d", resp.StatusCode)
	}
}
