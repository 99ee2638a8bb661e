// Command perfbench is the wire-level benchmark of sprofile: it starts
// internal/server on loopback inside this process, drives it with pre-encoded
// request bodies over at most two connections, checks every answer against a
// sequential reference, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload bulk-wal --seed 1 --seconds 30 --trace 0
//
// Run it from the repository root (run.sh builds it there); it keeps its
// data directories, results and span files under .bench_build/.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload name to its runner, how many pooled bodies
// per writing connection the replay probes take, and whether its writes use
// the bulk route.
var workloads = map[string]struct {
	run         func(*env) (*outcome, error)
	recordLimit int
	bulk        bool
}{
	"bulk-wal":    {runBulkWAL, 64, true},
	"query-mixed": {runQueryMixed, 2048, false},
}

// metric is one printed figure.
type metric struct {
	name  string
	unit  string
	value float64
}

func main() {
	workload := flag.String("workload", "", "bulk-wal or query-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	outDir := filepath.Join(".bench_build", "perfbench-out")
	dir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-run-%d", os.Getpid()))
	if err := mkdirAll(outDir); err != nil {
		return err
	}
	if err := mkdirAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir}
	if traced {
		e.tc = newTracer()
		e.rec = newRecording(w.recordLimit)
	}
	o, err := w.run(e)
	if err != nil {
		return err
	}
	o.traceSplit, o.seconds = traced, seconds
	var metrics []metric
	if traced {
		metrics, err = layerMetrics(e, o, w.bulk)
		if err != nil {
			return fmt.Errorf("per-layer probes: %w", err)
		}
		if err := e.tc.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))); err != nil {
			return err
		}
	} else {
		metrics = endToEnd(o, false)
	}
	meta := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"samples": map[string]int{
			"ack":     len(o.s.ack.plain) + len(o.s.ack.traced),
			"query":   len(o.s.query.plain) + len(o.s.query.traced),
			"visible": len(o.s.visible.plain) + len(o.s.visible.traced),
		},
		"setups_s": o.setups,
		"checks":   o.checks,
		"problems": o.s.problems,
	}
	for name, n := range meta["samples"].(map[string]int) {
		if n > 0 && n < 1000 && traced {
			fmt.Fprintf(os.Stderr, "perfbench: only %d %s samples: fewer than ten lie beyond p99\n", n, name)
		}
	}
	for _, c := range o.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	for _, p := range o.s.problems {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", p)
	}
	out := map[string]any{}
	for _, m := range metrics {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	record, _ := json.Marshal(map[string]any{"meta": meta, "metrics": out})
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, btoi(traced))), append(record, '\n'), 0o644); err != nil {
		return err
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)
	attempted := max(o.s.attempted, 1)
	failed := o.s.failed + int64(len(o.checks))
	res, err := json.Marshal(map[string]any{
		"correct":   len(o.checks) == 0 && o.s.failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// endToEnd derives the user-visible metrics; traced selects the samples
// taken in traced slices of a traced run.
func endToEnd(o *outcome, traced bool) []metric {
	pick := func(l *lat) []int64 {
		if traced {
			return l.traced
		}
		return l.plain
	}
	secs := o.window.Seconds()
	events := float64(o.s.ackedEvents[0] + o.s.ackedEvents[1])
	if o.traceSplit {
		// Traced and untraced slices alternate each second, traced first.
		secs = float64(o.seconds / 2)
		events = float64(o.s.ackedEvents[0])
		if traced {
			secs = float64(o.seconds - o.seconds/2)
			events = float64(o.s.ackedEvents[1])
		}
	}
	return []metric{
		{"acked_events_per_s", "events/s", events / max(secs, 1e-9)},
		{"ack_p50_ms", "ms", quantile(pick(&o.s.ack), 0.50, 1e6)},
		{"query_p50_ms", "ms", quantile(pick(&o.s.query), 0.50, 1e6)},
		{"visible_p50_ms", "ms", quantile(pick(&o.s.visible), 0.50, 1e6)},
		{"setup_s", "s", medianF(o.setups)},
		{"server_heap_mb", "MiB", o.heapMB},
	}
}

// commit names the checked-out commit when the tree is a git work tree.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == ref {
				return fields[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the tree, naming
// the code measured even where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
