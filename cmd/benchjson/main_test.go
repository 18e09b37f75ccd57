package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkCheckpointSaveChunked-8   \t 1264\t    934591 ns/op\t  91.23 dedup-%\t 2048 B/op\t 31 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if res.Name != "BenchmarkCheckpointSaveChunked" || res.Iterations != 1264 {
		t.Errorf("header = %q / %d", res.Name, res.Iterations)
	}
	want := map[string]float64{"ns/op": 934591, "dedup-%": 91.23, "B/op": 2048, "allocs/op": 31}
	for unit, val := range want {
		if res.Metrics[unit] != val {
			t.Errorf("metric %s = %v, want %v", unit, res.Metrics[unit], val)
		}
	}
	for _, bad := range []string{"", "PASS", "ok  \trepro\t1.2s", "goos: linux", "BenchmarkX"} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("parsed non-benchmark line %q", bad)
		}
	}
}

// TestParseBenchLineStripsProcsSuffix: go test spells a benchmark
// "Name-N" at GOMAXPROCS=N and plain "Name" at 1; both must land on one
// row, or a JSON from another CPU count reports every baseline row
// MISSING in -compare.
func TestParseBenchLineStripsProcsSuffix(t *testing.T) {
	for line, want := range map[string]string{
		"BenchmarkSaveAnchor-2 \t 300 \t 3300000 ns/op":                     "BenchmarkSaveAnchor",
		"BenchmarkSaveAnchor \t 300 \t 3300000 ns/op":                       "BenchmarkSaveAnchor",
		"BenchmarkIngest/64KiB-16 \t 300 \t 3300000 ns/op":                  "BenchmarkIngest/64KiB",
		"BenchmarkShardedIngestParallel/shards=8 \t 300 \t 3300000 ns/op":   "BenchmarkShardedIngestParallel/shards=8",
		"BenchmarkShardedIngestParallel/shards=8-2 \t 300 \t 3300000 ns/op": "BenchmarkShardedIngestParallel/shards=8",
		"BenchmarkTable11CDC-x \t 300 \t 3300000 ns/op":                     "BenchmarkTable11CDC-x",
		"BenchmarkTrailingDash- \t 300 \t 3300000 ns/op":                    "BenchmarkTrailingDash-",
		"Benchmark-4 \t 300 \t 3300000 ns/op":                               "Benchmark",
		"BenchmarkEncodePayload-2 \t 300 \t 3300000 ns/op \t 0 allocs/op":   "BenchmarkEncodePayload",
		"BenchmarkEncodePayload-128 \t 300 \t 3300000 ns/op \t 0 allocs/op": "BenchmarkEncodePayload",
	} {
		res, ok := parseBenchLine(line)
		if !ok || res.Name != want {
			t.Errorf("%q: name %q (parsed %v), want %q", line, res.Name, ok, want)
		}
	}
	// The two spellings of one benchmark merge into one row and compare as
	// one: a baseline parsed at 8 CPUs against results parsed at 1.
	a, _ := parseBenchLine("BenchmarkX-8 \t 10 \t 100 ns/op \t 5 allocs/op")
	b, _ := parseBenchLine("BenchmarkX \t 10 \t 90 ns/op \t 5 allocs/op")
	if rows := mergeResults([]BenchResult{a, b}); len(rows) != 1 || rows[0].Metrics["ns/op"] != 90 {
		t.Errorf("merged rows = %+v, want one row at 90 ns/op", rows)
	}
	if _, missing, failures := compareDocs(gateDoc(a), gateDoc(b), 20, false); len(missing) != 0 || failures != 0 {
		t.Errorf("compare across CPU counts: missing %v, %d failures", missing, failures)
	}
}

// TestParseBenchLinePromotedColumns: every column, the cost ones included,
// lives in Metrics under its Go unit, and a row's JSON is its name, its
// iteration count and that map — nothing else.
func TestParseBenchLinePromotedColumns(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkChunkFrame/f64-2 \t 101024 \t 11003 ns/op\t 5956.40 MB/s\t 65541 bytes-written/op\t 128 B/op\t 3 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	want := map[string]float64{"ns/op": 11003, "MB/s": 5956.4, "bytes-written/op": 65541, "B/op": 128, "allocs/op": 3}
	if len(res.Metrics) != len(want) {
		t.Errorf("metrics = %v, want %v", res.Metrics, want)
	}
	for unit, val := range want {
		if res.Metrics[unit] != val {
			t.Errorf("metric %s = %v, want %v", unit, res.Metrics[unit], val)
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]json.RawMessage
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	if len(row) != 3 || row["name"] == nil || row["iterations"] == nil || row["metrics"] == nil {
		t.Errorf("row JSON = %s, want name, iterations and metrics only", data)
	}
}

func TestMergeResultsKeepsMinimumCosts(t *testing.T) {
	parse := func(line string) BenchResult {
		r, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("line not parsed: %q", line)
		}
		return r
	}
	rows := []BenchResult{
		parse("BenchmarkSave-8 100 2000 ns/op 90.0 dedup-% 512 B/op 40 allocs/op"),
		parse("BenchmarkOther-8 10 700 ns/op"),
		parse("BenchmarkSave-8 100 1500 ns/op 92.0 dedup-% 600 B/op 30 allocs/op"),
		parse("BenchmarkSave-8 100 1800 ns/op 91.0 dedup-% 480 B/op 35 allocs/op"),
	}
	merged := mergeResults(rows)
	if len(merged) != 2 {
		t.Fatalf("merged to %d rows, want 2", len(merged))
	}
	if merged[0].Name != "BenchmarkSave" || merged[1].Name != "BenchmarkOther" {
		t.Fatalf("order lost: %v, %v", merged[0].Name, merged[1].Name)
	}
	r := merged[0]
	// Cost columns: minimum across the three runs, independently.
	if r.Metrics["ns/op"] != 1500 || r.Metrics["allocs/op"] != 30 || r.Metrics["B/op"] != 480 {
		t.Errorf("cost minima = %v", r.Metrics)
	}
	// Non-cost metrics follow the fastest run, not the min.
	if r.Metrics["dedup-%"] != 92.0 {
		t.Errorf("dedup-%% = %v, want the fastest run's 92.0", r.Metrics["dedup-%"])
	}
	// A single-run benchmark passes through untouched.
	if merged[1].Metrics["ns/op"] != 700 {
		t.Errorf("single-run row changed: %v", merged[1])
	}
}

// gateDoc builds a baseline-style document for the compare tests.
func gateDoc(results ...BenchResult) Output {
	return Output{Goos: "linux", Benchmarks: results}
}

func bench(name string, ns, allocs float64) BenchResult {
	return BenchResult{Name: name, Iterations: 100, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50), bench("BenchmarkRestore-8", 2000, 10))
	cur := gateDoc(
		bench("BenchmarkSave-8", 1150, 55),    // +15% ns, +10% allocs: inside 20%
		bench("BenchmarkRestore-8", 1500, 10), // improvement
		bench("BenchmarkNew-8", 99, 9),        // new benchmark: allowed
	)
	report, _, failures := compareDocs(old, cur, 20, false)
	if failures != 0 {
		t.Fatalf("within-tolerance run failed the gate: %v", report)
	}
	summary := report[len(report)-1]
	if !strings.Contains(summary, "compared 2 benchmark(s), 1 new, 0 violation(s)") {
		t.Errorf("summary = %q", summary)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	cur := gateDoc(bench("BenchmarkSave-8", 1000, 75)) // +50% allocs/op
	report, _, failures := compareDocs(old, cur, 20, false)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (%v)", failures, report)
	}
	if !strings.Contains(strings.Join(report, "\n"), "REGRESSED BenchmarkSave-8 allocs/op") {
		t.Errorf("report missing the allocs/op regression: %v", report)
	}

	// ns/op is advisory: the baseline's wall-clock comes from another host,
	// so movement beyond the tolerance is reported and never fails the gate.
	cur = gateDoc(bench("BenchmarkSave-8", 1300, 50)) // +30% ns/op
	report, _, failures = compareDocs(old, cur, 20, false)
	if failures != 0 {
		t.Errorf("ns/op movement failed the gate (failures = %d): %v", failures, report)
	}
	if joined := strings.Join(report, "\n"); !strings.Contains(joined, "ADVISORY  BenchmarkSave-8 ns/op") || strings.Contains(joined, "REGRESSED") {
		t.Errorf("report should carry the ns/op movement as advisory only: %v", report)
	}

	// A looser tolerance admits the same allocs delta.
	if _, _, failures = compareDocs(old, gateDoc(bench("BenchmarkSave-8", 1000, 75)), 60, false); failures != 0 {
		t.Errorf("50%% growth failed a 60%% gate")
	}
}

// TestCompareGatesHashedBytesExactly: hashed-B/op is a count of the code and
// the fixture, so one byte more fails whatever the tolerance, fewer bytes
// pass, and a benchmark that never reported the column is left alone.
func TestCompareGatesHashedBytesExactly(t *testing.T) {
	hashed := func(ns, allocs, bytes float64) BenchResult {
		r := bench("BenchmarkRestoreChain-2", ns, allocs)
		r.Metrics["hashed-B/op"] = bytes
		return r
	}
	old := gateDoc(hashed(1000, 50, 2113498), bench("BenchmarkSave-8", 1000, 50))
	if report, _, failures := compareDocs(old, gateDoc(hashed(1000, 50, 2113498), bench("BenchmarkSave-8", 1000, 50)), 20, false); failures != 0 {
		t.Fatalf("an unchanged count failed the gate: %v", report)
	}
	if report, _, failures := compareDocs(old, gateDoc(hashed(1000, 50, 2098611), bench("BenchmarkSave-8", 1000, 50)), 20, false); failures != 0 {
		t.Fatalf("a smaller count failed the gate: %v", report)
	}
	report, _, failures := compareDocs(old, gateDoc(hashed(1000, 55, 2113499), bench("BenchmarkSave-8", 1000, 50)), 60, false)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1: one hashed byte more, allocs inside the tolerance (%v)", failures, report)
	}
	if joined := strings.Join(report, "\n"); !strings.Contains(joined, "REGRESSED BenchmarkRestoreChain-2 hashed-B/op") || !strings.Contains(joined, "tolerance 0%") {
		t.Errorf("report does not carry the exact gate: %v", report)
	}
}

// TestCompareGatesCRCBytesExactly: crc-B/op, a save's CRC-32C traffic, is
// a count like hashed-B/op: one byte more fails inside any tolerance, fewer
// pass.
func TestCompareGatesCRCBytesExactly(t *testing.T) {
	crc := func(bytes float64) BenchResult {
		r := bench("BenchmarkSaveSubstep-2", 1000, 21)
		r.Metrics["crc-B/op"] = bytes
		return r
	}
	old := gateDoc(crc(8339))
	if report, _, failures := compareDocs(old, gateDoc(crc(8339)), 20, false); failures != 0 {
		t.Fatalf("an unchanged count failed the gate: %v", report)
	}
	if report, _, failures := compareDocs(old, gateDoc(crc(4096)), 20, false); failures != 0 {
		t.Fatalf("a smaller count failed the gate: %v", report)
	}
	report, _, failures := compareDocs(old, gateDoc(crc(8340)), 60, false)
	if joined := strings.Join(report, "\n"); failures != 1 || !strings.Contains(joined, "REGRESSED BenchmarkSaveSubstep-2 crc-B/op") {
		t.Fatalf("one CRC byte more: %d violation(s), want 1 (%v)", failures, report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50), bench("BenchmarkGone-8", 10, 1))
	cur := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	report, missing, failures := compareDocs(old, cur, 20, false)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1 (%v)", failures, report)
	}
	if !strings.Contains(strings.Join(report, "\n"), "MISSING  BenchmarkGone-8") {
		t.Errorf("report missing the dropped benchmark: %v", report)
	}
	if len(missing) != 1 || missing[0] != "BenchmarkGone-8" {
		t.Errorf("missing list = %v, want [BenchmarkGone-8]", missing)
	}
	// The fatal error itself names the dropped benchmark — CI shows
	// stderr even when the report scrolls away.
	errLine := gateFailure("new.json", "old.json", missing)
	if !strings.Contains(errLine, "BenchmarkGone-8") {
		t.Errorf("gate error does not name the missing benchmark: %q", errLine)
	}
}

func TestCompareAllowMissingToleratesRetiredBenchmark(t *testing.T) {
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50), bench("BenchmarkGone-8", 10, 1))
	cur := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	report, missing, failures := compareDocs(old, cur, 20, true)
	if failures != 0 {
		t.Fatalf("failures = %d with -allow-missing, want 0 (%v)", failures, report)
	}
	// The absence is still visible: listed and reported, just not fatal.
	if len(missing) != 1 || missing[0] != "BenchmarkGone-8" {
		t.Errorf("missing list = %v, want [BenchmarkGone-8]", missing)
	}
	if !strings.Contains(strings.Join(report, "\n"), "MISSING  BenchmarkGone-8") {
		t.Errorf("report does not mention the retired benchmark: %v", report)
	}
	// -allow-missing excuses absences only — a regression elsewhere in the
	// same run still fails the gate.
	cur = gateDoc(bench("BenchmarkSave-8", 1000, 250))
	if _, _, failures := compareDocs(old, cur, 20, true); failures != 1 {
		t.Errorf("failures = %d, want 1: -allow-missing must not excuse regressions", failures)
	}
}

func TestRunCompareAllowMissing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc Output) string {
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.json", gateDoc(bench("BenchmarkSave-8", 1000, 50), bench("BenchmarkGone-8", 10, 1)))
	newPath := write("new.json", gateDoc(bench("BenchmarkSave-8", 1000, 50)))
	if code := runCompare(oldPath, newPath, 20, false); code == 0 {
		t.Error("dropped benchmark passed the strict gate")
	}
	if code := runCompare(oldPath, newPath, 20, true); code != 0 {
		t.Error("dropped benchmark failed the gate despite -allow-missing")
	}
}

// TestCompareGatesCountColumnsExactly: bytes-written/op, a save's
// validated parameter bytes and the bytes it copied, an anchor's hashed
// chunks, a retention pass's backend operations and a paper-scale save's
// syncs are counts like hashed-B/op — one more over the
// baseline fails inside any tolerance, a zero baseline included; one fewer
// passes; a row that stops reporting the column fails.
func TestCompareGatesCountColumnsExactly(t *testing.T) {
	for _, tc := range []struct {
		name, unit string
		base       float64
	}{
		{"BenchmarkChunkFrame/f64", "bytes-written/op", 65541},
		{"BenchmarkSaveSubstep", "validated-B/op", 8192},
		{"BenchmarkSaveSubstep", "copied-B/op", 8375},
		{"BenchmarkSaveAnchor", "copied-B/op", 20663},
		{"BenchmarkSaveAnchor", "hashed-chunks/op", 15},
		{"BenchmarkRetentionPass/jobs=8", "delete-ops/op", 3},
		{"BenchmarkRetentionPass/jobs=8", "get-ops/op", 0},
		{"BenchmarkRetentionPass/jobs=8", "list-ops/op", 0},
		{"BenchmarkRetentionPass/jobs=8", "stat-ops/op", 2},
		{"BenchmarkRestoreChain", "probed/op", 16},
		{"BenchmarkRestoreChain", "chunks-fetched/op", 329},
		{"BenchmarkRestoreChainRemote", "requests/op", 305},
		{"BenchmarkRestoreChainRemote", "wire-B/op", 2202690},
		{"BenchmarkSavePaperScale/chunked", "fsyncs/op", 3},
		{"BenchmarkSavePaperScale/chunked", "dirsyncs/op", 3},
	} {
		row := func(v float64) BenchResult {
			r := bench(tc.name, 1000, 47)
			r.Metrics[tc.unit] = v
			return r
		}
		old := gateDoc(row(tc.base))
		report, _, failures := compareDocs(old, gateDoc(row(tc.base+1)), 60, false)
		if joined := strings.Join(report, "\n"); failures != 1 || !strings.Contains(joined, "REGRESSED "+tc.name+" "+tc.unit) {
			t.Errorf("%s one more: %d violation(s), want 1 (%v)", tc.unit, failures, report)
		}
		if report, _, failures := compareDocs(old, gateDoc(row(tc.base-1)), 20, false); failures != 0 {
			t.Errorf("%s one fewer failed the gate: %v", tc.unit, report)
		}
		if report, _, failures := compareDocs(old, gateDoc(bench(tc.name, 1000, 47)), 20, false); failures != 1 {
			t.Errorf("%s dropped from the row: %d violation(s), want 1 (%v)", tc.unit, failures, report)
		}
	}
}

// TestCompareCleanShareMayNotFall: clean-% (an anchor's chunks reused from
// the anchor before, deterministic) is gated from below. Any fall fails
// inside any tolerance, and so does a row that stops reporting it; a rise
// or an equal value passes. dedup-% moves with the iteration count and
// stays ungated.
func TestCompareCleanShareMayNotFall(t *testing.T) {
	row := func(unit string, v float64) BenchResult {
		r := bench("BenchmarkSaveAnchor", 1000, 47)
		r.Metrics[unit] = v
		return r
	}
	old := gateDoc(row("clean-%", 94.19))
	report, _, failures := compareDocs(old, gateDoc(row("clean-%", 94.18)), 60, false)
	if joined := strings.Join(report, "\n"); failures != 1 || !strings.Contains(joined, "REGRESSED BenchmarkSaveAnchor clean-%") {
		t.Errorf("clean-%% fell: %d violation(s), want 1 (%v)", failures, report)
	}
	for _, v := range []float64{94.19, 97} {
		if report, _, failures := compareDocs(old, gateDoc(row("clean-%", v)), 20, false); failures != 0 {
			t.Errorf("clean-%% at %v failed the gate: %v", v, report)
		}
	}
	if report, _, failures := compareDocs(old, gateDoc(bench("BenchmarkSaveAnchor", 1000, 47)), 20, false); failures != 1 {
		t.Errorf("clean-%% dropped from the row: %d violation(s), want 1 (%v)", failures, report)
	}
	if report, _, failures := compareDocs(gateDoc(row("dedup-%", 0.27)), gateDoc(row("dedup-%", 0.096)), 20, false); failures != 0 {
		t.Errorf("dedup-%% is gated: %v", report)
	}
}

// TestCompareUngatedColumnsRideAlong: the retired table benchmarks' columns
// — wire bytes and reductions, p99 stalls and throttle counts, per-chunker
// bytes and ratios, the audit's k and availability — are units outside
// gateRules. Each parses into the document and never trips the gate,
// whether the baseline predates its benchmark or carries a very different
// value.
func TestCompareUngatedColumnsRideAlong(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		drifted    map[string]float64 // a baseline's values for some of the line's columns
	}{
		{"network", "BenchmarkTable8Network-8 \t 2 \t 512000000 ns/op\t 14210 net-stall-µs\t 722022 wire-bytes/op\t 17.4 wire-reduction-x\t 12.5 has-hit-%\t 2048 B/op\t 31 allocs/op",
			map[string]float64{"wire-bytes/op": 1}},
		{"qos", "BenchmarkTable10QoS-8 \t 1 \t 1571000000 ns/op\t 30337 quiet-p99-noqos-µs\t 25707 quiet-p99-qos-µs\t 6 throttled\t 36875 warm-delta-bytes\t 4096 B/op\t 64 allocs/op",
			map[string]float64{"quiet-p99-qos-µs": 1, "throttled": 1000}},
		{"cdc", "BenchmarkTable11CDC-8 \t 1 \t 445729851 ns/op\t 263994 fixed-bytes/save\t 12695 cdc-bytes/save\t 20.68 cdc-dedup-ratio\t 15456 cdc-wire-bytes/save\t 4096 B/op\t 64 allocs/op",
			map[string]float64{"cdc-bytes/save": 1, "cdc-dedup-ratio": 1000}},
		{"replication", "BenchmarkTable12Replication-8 \t 1 \t 2204000000 ns/op\t 1 observed-k\t 100 degraded-avail-%\t 3.03 write-amp-x\t 4096 B/op\t 64 allocs/op",
			map[string]float64{"observed-k": 0.001, "write-amp-x": 0.001, "degraded-avail-%": 0.001}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, ok := parseBenchLine(tc.line)
			if !ok {
				t.Fatal("line not parsed")
			}
			fields := strings.Fields(tc.line)
			for i := 3; i < len(fields); i += 2 {
				if _, ok := cur.Metrics[fields[i]]; !ok {
					t.Errorf("metric %s lost in parsing: %v", fields[i], cur.Metrics)
				}
			}
			// The baseline predates the benchmark: an addition, not a violation.
			old := gateDoc(bench("BenchmarkSave-8", 1000, 50))
			report, missing, failures := compareDocs(old, gateDoc(bench("BenchmarkSave-8", 1000, 50), cur), 20, false)
			if failures != 0 || len(missing) != 0 {
				t.Fatalf("new columns tripped the gate: %v", report)
			}
			// The baseline has the columns at very different values: only
			// allocs/op is gated (ns/op advisory).
			older := bench(cur.Name, cur.Metrics["ns/op"], cur.Metrics["allocs/op"])
			for unit, v := range tc.drifted {
				older.Metrics[unit] = v
			}
			if report, _, failures := compareDocs(gateDoc(older), gateDoc(cur), 20, false); failures != 0 {
				t.Errorf("column drift tripped the gate: %v", report)
			}
		})
	}
}

func TestCompareSkipsZeroBaselines(t *testing.T) {
	// A baseline without -benchmem columns (allocs 0) must not divide by
	// zero or flag every new allocs value as a regression.
	old := gateDoc(bench("BenchmarkSave-8", 1000, 0))
	cur := gateDoc(bench("BenchmarkSave-8", 1000, 40))
	if _, _, failures := compareDocs(old, cur, 20, false); failures != 0 {
		t.Error("zero baseline treated as a regression")
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc Output) string {
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.json", gateDoc(bench("BenchmarkSave-8", 1000, 50)))
	goodPath := write("good.json", gateDoc(bench("BenchmarkSave-8", 1100, 50)))
	slowPath := write("slow.json", gateDoc(bench("BenchmarkSave-8", 5000, 50)))
	badPath := write("bad.json", gateDoc(bench("BenchmarkSave-8", 1000, 62))) // +24% allocs/op
	if code := runCompare(oldPath, goodPath, 20, false); code != 0 {
		t.Errorf("good run exit code = %d", code)
	}
	if code := runCompare(oldPath, slowPath, 20, false); code != 0 {
		t.Errorf("advisory ns/op movement exit code = %d", code)
	}
	if code := runCompare(oldPath, badPath, 20, false); code == 0 {
		t.Error("allocs/op regression passed the gate")
	}
	if code := runCompare(filepath.Join(dir, "absent.json"), goodPath, 20, false); code == 0 {
		t.Error("missing baseline file passed the gate")
	}
}
