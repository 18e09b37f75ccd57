package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestRow `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // bound 0: omitted from the file
}

type manifestRow struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-buildvcs=false", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 24,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestRow{w.name, w.why})
	}
	return m
}

// BENCHMARK.json is the contract later PRs are judged against; the
// program's tables are what it actually emits. They must not drift.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantManifest()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the program's tables differ (go test ./bench -run BenchmarkJSON -update rewrites the file)\n got %+v\nwant %+v", got, want)
	}

	// The limits the driver refuses a file over.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("metric %q (unit %q): bad name, bad unit, or used twice", n, u)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range got.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", lower, d.Bound}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range got.PerLayer {
		check(d.Name, d.Unit)
	}
	for _, w := range got.Workloads {
		check(w.Name, "count")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 || len(got.Workloads) < 2 || len(got.Workloads) > 8 || len(data) > 64<<10 {
		t.Error("BENCHMARK.json is over one of the contract's size limits")
	}
}

// smoke runs a workload at a tiny size: one anchor chain per repeat, a
// 64 KiB state, the least budget (two untraced repeats, or one untraced
// and one traced).
func smoke(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	key := fmt.Sprint(name, seed, trace)
	if res := smokeRuns[key]; res != nil {
		return res
	}
	res := smokeFresh(t, name, seed, trace)
	smokeRuns[key] = res
	return res
}

// smokeRuns keeps tier-1 fast: tests that only read a run share it.
var smokeRuns = map[string]*result{}

func smokeFresh(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.saves, w.restores = 15, min(w.restores, 2)
	o := options{w: w, seed: seed, seconds: 0.001, trace: trace, sh: tinyShape, fallback: t.TempDir()}
	if trace {
		o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.failures {
		t.Errorf("%s seed %d: %s", name, seed, f)
	}
	res.print(io.Discard)
	return res
}

// Every workload emits every metric BENCHMARK.json names, in both modes,
// correct and non-zero where the contract wants non-zero.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e := smoke(t, w.name, 1, false).line()
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
				t.Errorf("result line: %+v", e2e)
			}
			if len(e2e.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, BENCHMARK.json lists %d", len(e2e.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := e2e.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (emitted %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}

			traced := smoke(t, w.name, 1, true)
			layers := traced.line()
			if !layers.Correct || len(layers.Metrics) != len(perLayer) {
				t.Errorf("traced run: correct %v, %d metrics, BENCHMARK.json lists %d", layers.Correct, len(layers.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := layers.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer %s: got %+v (emitted %v), want unit %s", d.Name, m, ok, d.Unit)
				}
			}
			for _, must := range []string{"host.sha256_mibps", "core.codec.encode_us", "core.save.chunks_per_save", "storage.local.put_ops_per_save", "core.restore.chain_len", "trace.spans", "trace.overhead_ratio"} {
				if !(layers.Metrics[must].Value > 0) {
					t.Errorf("per-layer %s = %g on %s, want > 0", must, layers.Metrics[must].Value, w.name)
				}
			}
			if remote := strings.HasSuffix(w.name, "_remote"); remote != (layers.Metrics["server.requests_per_save"].Value > 0) {
				t.Errorf("server.requests_per_save = %g on %s", layers.Metrics["server.requests_per_save"].Value, w.name)
			}
			if info, err := os.Stat(traced.opt.spans); err != nil || info.Size() == 0 {
				t.Errorf("span file: %v", err)
			}

			// The busy times are a partition of the time the root spans cover.
			r := traced.traced[0]
			for root, p := range map[string]phaseAgg{layerCoreSave: r.saveAgg, layerCoreRestore: r.restAgg} {
				var sum int64
				for _, ns := range decompose(p, root) {
					sum += ns
				}
				cover := measure(p.get(root).cover)
				// Behind a server, stragglers (the third replica's write, a
				// handler returning after its response was read) run past
				// the client's span, so only the local stacks sum exactly.
				if strings.HasSuffix(w.name, "_local") && sum != cover {
					t.Errorf("%s: layer busy times sum to %d ns, the root spans cover %d ns", root, sum, cover)
				}
			}
		})
	}
}

// countMetrics are the program counters that, with one synchronous
// client, are a function of the seed alone.
func countMetrics(res *result) map[string]float64 {
	r := res.untraced[0]
	out := map[string]float64{
		"write_amp.bytes_written": float64(r.mgr.BytesWritten),
		"write_amp.payload_bytes": float64(r.savedPayloadBytes),
		"space_amp.resident":      float64(r.residentBytes),
		"space_amp.payload":       float64(r.payloadBytes),
	}
	for name, v := range layerValuesOf(res.traced[0]) {
		if strings.HasPrefix(name, "core.save.") && !strings.Contains(name, "_ms_") ||
			strings.HasPrefix(name, "storage.local.") && strings.Contains(name, "_ops_") {
			out[name] = v
		}
	}
	return out
}

func TestLocalCountsRepeatExactlyAndTracingDoesNotChangeThem(t *testing.T) {
	for _, name := range []string{"substep_local", "fullstep_local"} {
		first, second := smoke(t, name, 1, true), smokeFresh(t, name, 1, true)
		a, b := countMetrics(first), countMetrics(second)
		if len(a) < 12 {
			t.Fatalf("%s: only %d count metrics compared", name, len(a))
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %g, then %g with the same seed", name, k, v, b[k])
			}
		}
		u, tr := first.untraced[0].mgr, first.traced[0].mgr
		if u.Chunks != tr.Chunks || u.BytesWritten != tr.BytesWritten || u.Chunks == 0 {
			t.Errorf("%s: untraced %d chunks / %d B, traced %d / %d", name, u.Chunks, u.BytesWritten, tr.Chunks, tr.BytesWritten)
		}
		smoke(t, name, 2, false) // a second seed runs clean
	}
}

// Same core work on both sides of the wire: what differs between
// substep_local and substep_remote is then the wire and wrapper tax.
func TestRemoteDoesTheSameCoreWorkAsLocal(t *testing.T) {
	local, remote := smoke(t, "substep_local", 1, false), smoke(t, "substep_remote", 1, false)
	l := float64(local.untraced[0].mgr.Chunks) / float64(local.untraced[0].saves)
	r := float64(remote.untraced[0].mgr.Chunks) / float64(remote.untraced[0].saves)
	if l == 0 || r < 0.99*l || r > 1.01*l {
		t.Errorf("chunks per save: local %g, remote %g per client; want within 1%%", l, r)
	}
}

func TestPackageIsGofmtClean(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatal("no source files found", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean (%v)", f, err)
		}
	}
}
