// Command benchjson converts the text output of `go test -bench` on stdin
// into a JSON document, so the benchmark trajectory of the checkpoint
// pipeline (including the custom metrics the harness benchmarks report:
// dedup rates, modeled I/O bills, tier occupancy) is machine-readable.
// The `make bench-json` target pipes the full benchmark suite through it
// into the committed BENCH_*.json series.
//
// It is also the CI perf-regression gate: -compare checks a fresh
// document against the committed baseline and exits non-zero when any
// benchmark's allocs/op regressed beyond the tolerance, its hashed-B/op (a
// restore's SHA-256 traffic, a count) grew at all, or a baseline benchmark
// silently disappeared (it would otherwise hide its own regression
// forever). ns/op movement beyond the tolerance is printed as ADVISORY
// lines and never fails the gate: the baseline's wall-clock was taken on
// another host, and wall-clock claims belong to the paired runs of bench/
// (BENCHMARK.json). A PR that deliberately retires a benchmark passes
// -allow-missing: absences are still listed, just not counted as violations.
//
// Repeated runs of one benchmark (go test -count=N) are collapsed to a
// single row keeping the minimum of the cost columns — the noise-robust
// estimator for wall timings on shared machines.
//
// Usage:
//
//	go test -bench=. -benchmem -count=3 -run '^$' . | benchjson [-o out.json]
//	benchjson -compare old.json new.json [-tolerance 20] [-allow-missing]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// BenchResult is one benchmark line: its name, iteration count, and every
// value/unit metric pair (ns/op, B/op, allocs/op, custom metrics). The
// cost-per-op columns that the perf trajectory tracks across PRs —
// wall time, allocations, heap bytes, and the pipeline's bytes-written
// metric — are promoted to top-level fields so downstream tooling does
// not need to know the Go unit strings; every pair also stays in Metrics.
type BenchResult struct {
	Name         string             `json:"name"`
	Iterations   int64              `json:"iterations"`
	NsPerOp      float64            `json:"ns_per_op,omitempty"`
	AllocsPerOp  float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp   float64            `json:"bytes_per_op,omitempty"`
	WrittenPerOp float64            `json:"bytes_written_per_op,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
}

// Output is the whole document.
type Output struct {
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	Pkg        string        `json:"pkg,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// benchName strips the "-N" GOMAXPROCS suffix go test appends to a
// benchmark's name whenever N != 1, so results taken at different CPU
// counts land on the same row ("BenchmarkX-8" and "BenchmarkX" are one
// benchmark). A sub-benchmark whose own name ends in "-<digits>" is
// indistinguishable from a suffix; this repository has none.
func benchName(field string) string {
	if i := strings.LastIndexByte(field, '-'); i > 0 && i+1 < len(field) {
		if _, err := strconv.ParseUint(field[i+1:], 10, 32); err == nil {
			return field[:i]
		}
	}
	return field
}

// parseBenchLine parses "BenchmarkName-8  100  123 ns/op  4.5 dedup-%".
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	res := BenchResult{Name: benchName(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchResult{}, false
		}
		res.Metrics[fields[i+1]] = val
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = val
		case "allocs/op":
			res.AllocsPerOp = val
		case "B/op":
			res.BytesPerOp = val
		case "bytes-written/op":
			res.WrittenPerOp = val
		}
	}
	return res, true
}

// costUnits are the units for which smaller is better and repeated
// -count runs are collapsed to their minimum — the noise-robust
// estimator for wall timings on shared machines (a slow run means
// interference; a fast run means the code really can go that fast).
var costUnits = map[string]bool{
	"ns/op": true, "B/op": true, "allocs/op": true, "bytes-written/op": true,
}

// mergeResults collapses repeated runs of one benchmark (go test
// -count=N emits one line per run) into a single row: cost units keep
// their minimum across runs, every other metric keeps the value from the
// run that achieved the minimal ns/op. Rows keep first-appearance order.
func mergeResults(rows []BenchResult) []BenchResult {
	var out []BenchResult
	index := make(map[string]int)
	for _, r := range rows {
		i, ok := index[r.Name]
		if !ok {
			index[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		best := &out[i]
		if r.NsPerOp > 0 && (best.NsPerOp == 0 || r.NsPerOp < best.NsPerOp) {
			// This run is the new fastest: adopt its non-cost metrics
			// wholesale, then re-minimize the cost units below.
			merged := r
			for u, v := range best.Metrics {
				if costUnits[u] {
					if cur, ok := merged.Metrics[u]; !ok || v < cur {
						merged.Metrics[u] = v
					}
				}
			}
			*best = merged
		} else {
			for u, v := range r.Metrics {
				if costUnits[u] {
					if cur, ok := best.Metrics[u]; !ok || v < cur {
						best.Metrics[u] = v
					}
				}
			}
		}
		best.NsPerOp = best.Metrics["ns/op"]
		best.AllocsPerOp = best.Metrics["allocs/op"]
		best.BytesPerOp = best.Metrics["B/op"]
		best.WrittenPerOp = best.Metrics["bytes-written/op"]
	}
	return out
}

// gateMetrics are the per-benchmark columns the comparison tracks.
// allocs/op — hardware-independent — can fail the gate; ns/op depends on
// the host the baseline was generated on (the same tree has failed and
// passed on it within a day), so its movement is reported as advisory.
// hashed-B/op (LoadReport.BytesHashed: a function of the code and the
// fixture alone) is exact: any growth fails, whatever -tolerance says.
// Bytes-written metrics change whenever the workload grows: informational.
var gateMetrics = []struct {
	name     string
	get      func(BenchResult) float64
	advisory bool
	exact    bool
}{
	{"ns/op", func(r BenchResult) float64 { return r.NsPerOp }, true, false},
	{"allocs/op", func(r BenchResult) float64 { return r.AllocsPerOp }, false, false},
	{"hashed-B/op", func(r BenchResult) float64 { return r.Metrics["hashed-B/op"] }, false, true},
}

// compareDocs gates newDoc against oldDoc: every baseline benchmark must
// still exist, and its gated metrics must not exceed the baseline by more
// than tolerancePct percent — at all, for an exact metric (advisory metrics
// that do are reported, not counted). A zero baseline value is skipped
// (nothing meaningful to ratio against) — which is also what keeps the gate
// tolerant of new metric columns: units outside gateMetrics (the network
// benchmark's wire-bytes/op, wire-reduction-x, …) ride along in Metrics and
// are never compared. It returns the human-readable report, the
// names of baseline benchmarks absent from the new results, and the
// number of violations. With allowMissing set, absent baselines are
// still reported and listed but not counted as violations — the escape
// hatch for PRs that deliberately retire a benchmark.
func compareDocs(oldDoc, newDoc Output, tolerancePct float64, allowMissing bool) (report, missing []string, failures int) {
	newByName := make(map[string]BenchResult, len(newDoc.Benchmarks))
	for _, r := range newDoc.Benchmarks {
		newByName[r.Name] = r
	}
	added := len(newDoc.Benchmarks)
	for _, old := range oldDoc.Benchmarks {
		cur, ok := newByName[old.Name]
		if !ok {
			missing = append(missing, old.Name)
			if allowMissing {
				report = append(report, fmt.Sprintf("MISSING  %s: in baseline but not in new results (allowed)", old.Name))
			} else {
				failures++
				report = append(report, fmt.Sprintf("MISSING  %s: in baseline but not in new results", old.Name))
			}
			continue
		}
		added--
		for _, m := range gateMetrics {
			was, now, tolerance := m.get(old), m.get(cur), tolerancePct
			if m.exact {
				tolerance = 0
			}
			if was <= 0 || now <= was*(1+tolerance/100) {
				continue
			}
			verdict := "REGRESSED"
			if m.advisory {
				verdict = "ADVISORY "
			} else {
				failures++
			}
			report = append(report, fmt.Sprintf("%s %s %s: %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)",
				verdict, old.Name, m.name, was, now, 100*(now-was)/was, tolerance))
		}
	}
	report = append(report, fmt.Sprintf("compared %d benchmark(s), %d new, %d violation(s) at %.0f%% tolerance",
		len(oldDoc.Benchmarks), added, failures, tolerancePct))
	return report, missing, failures
}

// gateFailure renders the fatal stderr line of a failed gate. A dropped
// benchmark is the sneakiest failure mode (it hides its own regression
// forever), so its name goes into the error itself, not just the report.
func gateFailure(newPath, oldPath string, missing []string) string {
	msg := fmt.Sprintf("benchjson: perf gate FAILED (%s vs %s)", newPath, oldPath)
	if len(missing) > 0 {
		msg += fmt.Sprintf(": baseline benchmark(s) missing from %s: %s",
			newPath, strings.Join(missing, ", "))
	}
	return msg
}

// loadDoc reads one benchjson document from disk.
func loadDoc(path string) (Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Output{}, err
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		return Output{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runCompare implements the -compare mode; it returns the process exit
// code.
func runCompare(oldPath, newPath string, tolerancePct float64, allowMissing bool) int {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
		return 1
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: new results: %v\n", err)
		return 1
	}
	report, missing, failures := compareDocs(oldDoc, newDoc, tolerancePct, allowMissing)
	for _, line := range report {
		fmt.Println(line)
	}
	if failures > 0 {
		fmt.Fprintln(os.Stderr, gateFailure(newPath, oldPath, missing))
		return 1
	}
	return 0
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "gate mode: compare <old.json> <new.json> instead of parsing stdin")
	tolerance := flag.Float64("tolerance", 20, "compare: allowed allocs/op growth in percent (ns/op beyond it is advisory)")
	allowMissing := flag.Bool("allow-missing", false, "compare: report baseline benchmarks absent from the new results without failing the gate (for PRs that deliberately retire a benchmark)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-tolerance pct] [-allow-missing] old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *tolerance, *allowMissing))
	}

	doc := Output{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if res, ok := parseBenchLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	doc.Benchmarks = mergeResults(doc.Benchmarks)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
}
