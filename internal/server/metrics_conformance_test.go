package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The conformance test scrapes /metrics while ingest and queries run
// concurrently, parses every line of the exposition against the text-format
// grammar, and checks the invariants a real Prometheus server relies on:
// counters never go backwards between scrapes, histogram buckets are
// cumulative, and the +Inf bucket agrees with _count. It doubles as the
// naming lint: every family is sprofile_*, counters end in _total, and
// time/byte families carry their unit suffix.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type scrapedFamily struct {
	help    string
	typ     string
	samples map[string]float64 // rendered series (name{labels}) -> value
}

// parseExposition validates the whole body line by line and groups samples
// under their # TYPE family.
func parseExposition(t *testing.T, body string) map[string]*scrapedFamily {
	t.Helper()
	fams := make(map[string]*scrapedFamily)
	fam := func(name string) *scrapedFamily {
		f, ok := fams[name]
		if !ok {
			f = &scrapedFamily{samples: make(map[string]float64)}
			fams[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if !metricNameRe.MatchString(rest[0]) {
				t.Fatalf("line %d: bad HELP name %q", ln+1, rest[0])
			}
			fam(rest[0]).help = line
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(rest) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if !metricNameRe.MatchString(rest[0]) {
				t.Fatalf("line %d: bad TYPE name %q", ln+1, rest[0])
			}
			switch rest[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, rest[1])
			}
			fam(rest[0]).typ = rest[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		series, value, ok := strings.Cut(line, " ")
		// Label values in this repo never contain spaces, so the first space
		// separates series from value; a second one is a grammar violation.
		if !ok || strings.Contains(value, " ") {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, value, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unbalanced label braces in %q", ln+1, series)
			}
			name = series[:i]
			parseLabels(t, ln+1, series[i+1:len(series)-1])
		}
		if !metricNameRe.MatchString(name) {
			t.Fatalf("line %d: bad sample name %q", ln+1, name)
		}
		// _bucket/_sum/_count samples belong to the histogram family that
		// declared the base name.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					base = trimmed
				}
				break
			}
		}
		f, ok := fams[base]
		if !ok || f.typ == "" || f.help == "" {
			t.Fatalf("line %d: sample %q before its # HELP/# TYPE header", ln+1, name)
		}
		if _, dup := f.samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		f.samples[series] = v
	}
	return fams
}

// parseLabels checks the name="value" grammar, including \\, \" and \n
// escapes inside values.
func parseLabels(t *testing.T, ln int, s string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			t.Fatalf("line %d: malformed label pair in %q", ln, s)
		}
		name := s[:eq]
		if !labelNameRe.MatchString(name) {
			t.Fatalf("line %d: bad label name %q", ln, name)
		}
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				t.Fatalf("line %d: unterminated label value in %q", ln, s)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					t.Fatalf("line %d: dangling escape in %q", ln, s)
				}
				switch rest[i+1] {
				case '\\', '"', 'n':
					val.WriteByte(rest[i+1])
				default:
					t.Fatalf("line %d: unknown escape \\%c in %q", ln, rest[i+1], s)
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		out[name] = val.String()
		s = rest[i+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if len(s) > 0 {
			t.Fatalf("line %d: missing comma between label pairs in %q", ln, s)
		}
	}
	return out
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]*scrapedFamily {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// requiredFamilies must appear in every scrape: one or more per plane, plus
// the runtime and build-info families. All planes' families register at
// package init, so even idle planes export zero-valued series.
var requiredFamilies = []string{
	// HTTP plane.
	"sprofile_http_requests_total", "sprofile_http_request_seconds",
	// Query plane.
	"sprofile_query_seconds", "sprofile_query_statistics_total",
	// Ingest plane.
	"sprofile_ingest_events_total", "sprofile_ingest_batch_events",
	"sprofile_ingest_applied_deltas_total", "sprofile_ingest_coalesce_events_total",
	// Async plane.
	"sprofile_async_applied_events_total", "sprofile_async_mailbox_depth",
	"sprofile_async_backpressure_waits_total", "sprofile_async_publish_lag_seconds",
	// WAL / checkpoint plane.
	"sprofile_wal_appends_total", "sprofile_wal_fsync_seconds",
	"sprofile_checkpoints_total", "sprofile_checkpoint_seconds",
	// Replication plane.
	"sprofile_replication_fetches_total", "sprofile_replication_lag_bytes",
	"sprofile_replication_staleness_seconds",
	// Runtime and build info.
	"sprofile_go_goroutines", "sprofile_go_heap_alloc_bytes",
	"sprofile_go_gc_pause_seconds_total", "sprofile_process_uptime_seconds",
	"sprofile_build_info",
}

func checkNaming(t *testing.T, fams map[string]*scrapedFamily) {
	t.Helper()
	for name, f := range fams {
		if !strings.HasPrefix(name, "sprofile_") {
			t.Errorf("family %q does not carry the sprofile_ prefix", name)
		}
		if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q does not end in _total", name)
		}
		if f.typ != "counter" && strings.HasSuffix(name, "_total") {
			t.Errorf("%s %q misuses the _total suffix", f.typ, name)
		}
		base := strings.TrimSuffix(name, "_total")
		if strings.Contains(base, "second") && !strings.HasSuffix(base, "_seconds") &&
			!strings.HasSuffix(base, "_unix_seconds") {
			t.Errorf("time family %q does not end in _seconds", name)
		}
		if strings.Contains(base, "bytes") && !strings.HasSuffix(base, "_bytes") {
			t.Errorf("byte family %q does not end in _bytes", name)
		}
	}
}

func checkHistograms(t *testing.T, fams map[string]*scrapedFamily) {
	t.Helper()
	for name, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		// Group bucket/sum/count samples by their non-le label set.
		type hist struct {
			buckets map[float64]float64
			sum     float64
			count   float64
		}
		hists := make(map[string]*hist)
		get := func(key string) *hist {
			h, ok := hists[key]
			if !ok {
				h = &hist{buckets: make(map[float64]float64)}
				hists[key] = h
			}
			return h
		}
		for series, v := range f.samples {
			labels := ""
			sname := series
			if i := strings.IndexByte(series, '{'); i >= 0 {
				sname, labels = series[:i], series[i+1:len(series)-1]
			}
			switch {
			case sname == name+"_sum":
				get(labels).sum = v
			case sname == name+"_count":
				get(labels).count = v
			case sname == name+"_bucket":
				pairs := parseLabels(t, 0, labels)
				le, err := strconv.ParseFloat(pairs["le"], 64)
				if err != nil {
					t.Fatalf("%s: bad le label %q", series, pairs["le"])
				}
				delete(pairs, "le")
				var rest []string
				for k, v := range pairs {
					rest = append(rest, fmt.Sprintf("%s=%q", k, v))
				}
				sort.Strings(rest)
				get(strings.Join(rest, ",")).buckets[le] = v
			default:
				t.Fatalf("histogram %s has stray sample %q", name, series)
			}
		}
		for key, h := range hists {
			var les []float64
			for le := range h.buckets {
				les = append(les, le)
			}
			sort.Float64s(les)
			if len(les) == 0 || !math.IsInf(les[len(les)-1], +1) {
				t.Fatalf("%s{%s}: no +Inf bucket", name, key)
			}
			prev := -1.0
			for _, le := range les {
				if c := h.buckets[le]; c < prev {
					t.Fatalf("%s{%s}: bucket le=%g count %g < previous %g (not cumulative)", name, key, le, c, prev)
				} else {
					prev = c
				}
			}
			if inf := h.buckets[math.Inf(1)]; inf != h.count {
				t.Fatalf("%s{%s}: +Inf bucket %g != _count %g", name, key, inf, h.count)
			}
			if h.count > 0 && h.sum < 0 {
				t.Fatalf("%s{%s}: negative _sum %g with count %g", name, key, h.sum, h.count)
			}
		}
	}
}

func TestMetricsConformanceUnderConcurrentIngest(t *testing.T) {
	ts := newTestServer(t, 10_000)

	first := scrapeMetrics(t, ts)
	for _, name := range requiredFamilies {
		f, ok := first[name]
		if !ok {
			t.Errorf("required family %q missing from scrape", name)
			continue
		}
		if f.typ == "" || f.help == "" {
			t.Errorf("family %q missing # HELP/# TYPE headers", name)
		}
	}
	checkNaming(t, first)

	// Hammer ingest and queries from several goroutines while scraping, so a
	// race between instrumentation and rendering would trip -race, then take
	// a final quiesced scrape for the monotonicity comparison.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := fmt.Sprintf(`[{"object":"obj-%d-%d","action":"add"},{"object":"obj-%d-%d","action":"add"}]`, g, i, g, i)
				resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"mode":true,"top_k":3}`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(g)
	}
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraperDone

	second := scrapeMetrics(t, ts)
	checkNaming(t, second)
	checkHistograms(t, second)

	// Counters must be monotonic between the two scrapes, series by series.
	for name, f := range first {
		sf, ok := second[name]
		if !ok {
			t.Errorf("family %q vanished between scrapes", name)
			continue
		}
		if f.typ != "counter" && f.typ != "histogram" {
			continue
		}
		for series, v := range f.samples {
			if f.typ == "histogram" && !strings.Contains(series, "_bucket") &&
				!strings.HasPrefix(series, name+"_count") {
				continue // _sum is float-accumulated; only counts are integral
			}
			if after, ok := sf.samples[series]; ok && after < v {
				t.Errorf("series %q went backwards: %g -> %g", series, v, after)
			}
		}
	}

	// The workload above must actually have moved the ingest and HTTP planes.
	sumFamily := func(fams map[string]*scrapedFamily, name string) float64 {
		var total float64
		if f, ok := fams[name]; ok {
			for _, v := range f.samples {
				total += v
			}
		}
		return total
	}
	if sumFamily(second, "sprofile_ingest_events_total") <= sumFamily(first, "sprofile_ingest_events_total") {
		t.Errorf("ingest counters did not advance under load")
	}
	if sumFamily(second, "sprofile_http_requests_total") <= sumFamily(first, "sprofile_http_requests_total") {
		t.Errorf("HTTP counters did not advance under load")
	}
	if sumFamily(second, "sprofile_query_statistics_total") <= sumFamily(first, "sprofile_query_statistics_total") {
		t.Errorf("query statistic counters did not advance under load")
	}
}

// TestRouteLabels checks that the route label of the HTTP families is
// derived from the registrations: every registered pattern, the
// conditional failpoint route and the GET statistics table included,
// renders as its own label, and nothing else does.
func TestRouteLabels(t *testing.T) {
	s, err := New(Config{Capacity: 8, WALPath: t.TempDir(), DebugFailpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	routes := []string{
		"/healthz", "/metrics", "/v1/events", "/v1/events/bulk", "/v1/query",
		"/v1/admin/checkpoint", "/v1/admin/flush", "/v1/admin/promote", "/v1/admin/failpoint",
		"/v1/export", "/v1/import", "/v1/replication/snapshot", "/v1/replication/wal",
	}
	for _, rt := range s.statRoutes() {
		routes = append(routes, rt.path)
	}
	for _, route := range routes {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if got := s.routeLabel(httptest.NewRequest(method, route+"?k=1", nil)); got != route {
				t.Errorf("%s %s renders as route %q, want its own pattern", method, route, got)
			}
		}
	}
	for _, path := range []string{"/", "/v1/stats", "/v1/stats/mode/x", "/v1/nope"} {
		if got := s.routeLabel(httptest.NewRequest(http.MethodGet, path, nil)); got != "other" {
			t.Errorf("unregistered %s renders as route %q, want other", path, got)
		}
	}
	plain, err := New(Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if got := plain.routeLabel(httptest.NewRequest(http.MethodPost, "/v1/admin/failpoint", nil)); got != "other" {
		t.Errorf("failpoint route without DebugFailpoints renders as %q, want other", got)
	}

	// A served GET statistic is counted under its route and, like POST
	// /v1/query, under the query families by its selected statistics.
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats/rank?object=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fams := scrapeMetrics(t, ts)
	for family, series := range map[string]string{
		"sprofile_http_requests_total":    `route="/v1/stats/rank"`,
		"sprofile_query_seconds":          `stats="count+distribution"`,
		"sprofile_query_statistics_total": `stat="distribution"`,
	} {
		found := false
		for name := range fams[family].samples {
			found = found || strings.Contains(name, series)
		}
		if !found {
			t.Errorf("%s has no %s series after GET /v1/stats/rank", family, series)
		}
	}
}
