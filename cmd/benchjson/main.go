// Command benchjson converts the text output of `go test -bench` on stdin
// into a JSON document, so the benchmark trajectory of the checkpoint
// pipeline (including the custom count columns the micro benchmarks report:
// bytes hashed, CRC'd and validated, bytes written, backend operations) is
// machine-readable. The `make bench-json` target pipes the go-test
// benchmark suite through it into the committed BENCH_*.json series.
//
// It is also the CI perf-regression gate: -compare checks a fresh
// document against the committed baseline and exits non-zero when any
// benchmark's allocs/op regressed beyond the tolerance, one of its count
// columns (gateRules' exact set) grew or a floor share fell at all or went
// unreported, or a baseline benchmark silently disappeared (it would
// otherwise hide its own regression forever). ns/op movement beyond the
// tolerance is printed as ADVISORY lines and never fails the gate: the
// baseline's wall-clock was taken on another host, and wall-clock claims
// belong to the paired runs of bench/ (BENCHMARK.json). A PR that deliberately retires a benchmark
// passes -allow-missing: absences are still listed, just not counted as
// violations.
//
// Repeated runs of one benchmark (go test -count=N) are collapsed to a
// single row keeping the minimum of the cost columns — the noise-robust
// estimator for wall timings on shared machines.
//
// Usage:
//
//	go test -bench=. -benchmem -count=3 -run '^$' ./... | benchjson [-o out.json]
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
// value/unit metric pair (ns/op, B/op, allocs/op, custom metrics), keyed by
// the Go unit string.
type BenchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
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
		from := r
		if ns := r.Metrics["ns/op"]; ns > 0 && (best.Metrics["ns/op"] == 0 || ns < best.Metrics["ns/op"]) {
			// This run is the new fastest: adopt its non-cost metrics
			// wholesale, then re-minimize the cost units below.
			from, *best = *best, r
		}
		for u, v := range from.Metrics {
			if costUnits[u] {
				if cur, ok := best.Metrics[u]; !ok || v < cur {
					best.Metrics[u] = v
				}
			}
		}
	}
	return out
}

// gateRule is how -compare treats a column's growth over the baseline:
// advisory growth beyond the tolerance is reported and never fails (ns/op
// depends on the host the baseline was generated on; the same tree has
// failed and passed on it within a day); tolerance growth beyond it fails
// (allocs/op: hardware-independent, but it moves a little with the
// runtime); exact growth fails whatever -tolerance says, from a zero
// baseline too, and so does dropping the column — these are counts of the
// code and the fixture alone, the same on every run and every host. A
// floor column, a deterministic share, fails likewise on any fall.
type gateRule int

const (
	advisory gateRule = iota
	tolerance
	exact
	floor
)

// gateRules are the columns -compare gates, in report order. Every other
// unit (MB/s, dedup-%, which moves with the iteration count, <stage>-ns/op)
// rides along in Metrics ungated.
var gateRules = []struct {
	unit string
	rule gateRule
}{
	{"ns/op", advisory},
	{"allocs/op", tolerance},
	{"hashed-B/op", exact},      // SHA-256 traffic
	{"crc-B/op", exact},         // a save's CRC-32C traffic
	{"validated-B/op", exact},   // the parameter bytes a save's finiteness check read
	{"copied-B/op", exact},      // the bytes a save wrote into its payload buffer
	{"hashed-chunks/op", exact}, // the chunks an anchor framed and hashed, on the costliest timed anchor
	{"bytes-written/op", exact}, // a chunk frame's size
	{"list-ops/op", exact},      // a retention pass's backend operations
	{"get-ops/op", exact},
	{"stat-ops/op", exact},
	{"delete-ops/op", exact},
	{"probed/op", exact}, {"chunks-fetched/op", exact}, // a restore's header probes and chunk reads
	{"requests/op", exact}, {"wire-B/op", exact}, // a remote restore's HTTP requests and the bytes they moved
	{"fsyncs/op", exact}, {"dirsyncs/op", exact}, // a paper-scale save's file and directory syncs
	{"clean-%", floor}, // the share of an anchor's chunks reused from the anchor before
}

// compareDocs gates newDoc against oldDoc: every baseline benchmark must
// still exist, and each column gateRules names must not exceed its baseline
// by more than tolerancePct percent — at all, for an exact column (advisory
// columns that do are reported, not counted), and no floor column may fall
// below it. A column the baseline does not report is not compared, and
// neither is a zero baseline under the tolerance (nothing meaningful to
// ratio against). It returns the human-readable report, the names of
// baseline benchmarks absent from the new results, and the number of
// violations. With allowMissing set, absent
// baselines are still reported and listed but not counted as violations —
// the escape hatch for PRs that deliberately retire a benchmark.
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
		for _, g := range gateRules {
			was, ok := old.Metrics[g.unit]
			if !ok {
				continue
			}
			now, reported := cur.Metrics[g.unit]
			tol := tolerancePct
			switch {
			case (g.rule == exact || g.rule == floor) && !reported:
				failures++
				report = append(report, fmt.Sprintf("REGRESSED %s %s: %.10g in baseline, not reported now", old.Name, g.unit, was))
				continue
			case g.rule == floor:
				if now < was {
					failures++
					report = append(report, fmt.Sprintf("REGRESSED %s %s: %.10g -> %.10g (may not fall)", old.Name, g.unit, was, now))
				}
				continue
			case g.rule == exact:
				tol = 0
			case was <= 0:
				continue
			}
			if now <= was*(1+tol/100) {
				continue
			}
			verdict := "REGRESSED"
			if g.rule == advisory {
				verdict = "ADVISORY "
			} else {
				failures++
			}
			report = append(report, fmt.Sprintf("%s %s %s: %.10g -> %.10g (%+.1f%%, tolerance %.0f%%)",
				verdict, old.Name, g.unit, was, now, 100*(now-was)/was, tol))
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
