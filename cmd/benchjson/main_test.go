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
	if rows := mergeResults([]BenchResult{a, b}); len(rows) != 1 || rows[0].NsPerOp != 90 {
		t.Errorf("merged rows = %+v, want one row at 90 ns/op", rows)
	}
	if _, missing, failures := compareDocs(gateDoc(a), gateDoc(b), 20, false); len(missing) != 0 || failures != 0 {
		t.Errorf("compare across CPU counts: missing %v, %d failures", missing, failures)
	}
}

func TestParseBenchLinePromotedColumns(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkTable6SavePath-8 \t 5 \t 231209450 ns/op\t 6205 bytes-written/op\t 5.2 byteswritten-x\t 98505348 B/op\t 24964 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if res.NsPerOp != 231209450 {
		t.Errorf("NsPerOp = %v", res.NsPerOp)
	}
	if res.AllocsPerOp != 24964 {
		t.Errorf("AllocsPerOp = %v", res.AllocsPerOp)
	}
	if res.BytesPerOp != 98505348 {
		t.Errorf("BytesPerOp = %v", res.BytesPerOp)
	}
	if res.WrittenPerOp != 6205 {
		t.Errorf("WrittenPerOp = %v", res.WrittenPerOp)
	}
	// Promotion must not remove the pairs from the generic metric map.
	if res.Metrics["bytes-written/op"] != 6205 || res.Metrics["byteswritten-x"] != 5.2 {
		t.Errorf("metrics map lost pairs: %v", res.Metrics)
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
	if r.NsPerOp != 1500 || r.AllocsPerOp != 30 || r.BytesPerOp != 480 {
		t.Errorf("cost minima = ns %v, allocs %v, B %v", r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if r.Metrics["ns/op"] != 1500 || r.Metrics["B/op"] != 480 {
		t.Errorf("metrics map diverged from promoted columns: %v", r.Metrics)
	}
	// Non-cost metrics follow the fastest run, not the min.
	if r.Metrics["dedup-%"] != 92.0 {
		t.Errorf("dedup-%% = %v, want the fastest run's 92.0", r.Metrics["dedup-%"])
	}
	// A single-run benchmark passes through untouched.
	if merged[1].NsPerOp != 700 {
		t.Errorf("single-run row changed: %v", merged[1])
	}
}

// gateDoc builds a baseline-style document for the compare tests.
func gateDoc(results ...BenchResult) Output {
	return Output{Goos: "linux", Benchmarks: results}
}

func bench(name string, ns, allocs float64) BenchResult {
	return BenchResult{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
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

func TestCompareToleratesNetworkColumns(t *testing.T) {
	// The T8 network benchmark adds metric columns no baseline has
	// (wire-bytes/op, wire-reduction-x, has-hit-%, net-stall-µs). They
	// must flow into the document untouched and never trip the gate.
	line := "BenchmarkTable8Network-8 \t 2 \t 512000000 ns/op\t 14210 net-stall-µs\t 722022 wire-bytes/op\t 17.4 wire-reduction-x\t 12.5 has-hit-%\t 2048 B/op\t 31 allocs/op"
	cur, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("network benchmark line not parsed")
	}
	for _, unit := range []string{"net-stall-µs", "wire-bytes/op", "wire-reduction-x", "has-hit-%"} {
		if _, ok := cur.Metrics[unit]; !ok {
			t.Errorf("metric %s lost in parsing: %v", unit, cur.Metrics)
		}
	}
	// Baseline predates T8 entirely: the new benchmark and its columns
	// are additions, not violations.
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	report, missing, failures := compareDocs(old, gateDoc(bench("BenchmarkSave-8", 1000, 50), cur), 20, false)
	if failures != 0 || len(missing) != 0 {
		t.Fatalf("new network columns tripped the gate: %v", report)
	}
	// Baseline that HAS the columns but with different values: still not
	// gated — only allocs/op is gated (ns/op advisory).
	older := cur
	older.Metrics = map[string]float64{"ns/op": cur.NsPerOp, "allocs/op": cur.AllocsPerOp, "wire-bytes/op": 1}
	_, _, failures = compareDocs(gateDoc(older), gateDoc(cur), 20, false)
	if failures != 0 {
		t.Error("wire-bytes/op growth tripped the gate")
	}
}

func TestCompareToleratesQoSColumns(t *testing.T) {
	// The T10 QoS benchmark adds metric columns no baseline has
	// (quiet-p99-noqos-µs, quiet-p99-qos-µs, throttled,
	// warm-delta-bytes). Like T8's network columns, they must parse into
	// the document and never trip the gate, whether the baseline predates
	// the benchmark or carries different values.
	line := "BenchmarkTable10QoS-8 \t 1 \t 1571000000 ns/op\t 30337 quiet-p99-noqos-µs\t 25707 quiet-p99-qos-µs\t 6 throttled\t 36875 warm-delta-bytes\t 4096 B/op\t 64 allocs/op"
	cur, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("QoS benchmark line not parsed")
	}
	for _, unit := range []string{"quiet-p99-noqos-µs", "quiet-p99-qos-µs", "throttled", "warm-delta-bytes"} {
		if _, ok := cur.Metrics[unit]; !ok {
			t.Errorf("metric %s lost in parsing: %v", unit, cur.Metrics)
		}
	}
	// Baseline predates T10: the new benchmark and its columns are
	// additions, not violations.
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	report, missing, failures := compareDocs(old, gateDoc(bench("BenchmarkSave-8", 1000, 50), cur), 20, false)
	if failures != 0 || len(missing) != 0 {
		t.Fatalf("new QoS columns tripped the gate: %v", report)
	}
	// Baseline that HAS the columns with very different values (p99s and
	// throttle counts swing with machine load): only allocs/op is
	// gated (ns/op advisory).
	older := cur
	older.Metrics = map[string]float64{
		"ns/op": cur.NsPerOp, "allocs/op": cur.AllocsPerOp,
		"quiet-p99-qos-µs": 1, "throttled": 1000,
	}
	if _, _, failures = compareDocs(gateDoc(older), gateDoc(cur), 20, false); failures != 0 {
		t.Error("QoS column drift tripped the gate")
	}
}

func TestCompareToleratesCDCColumns(t *testing.T) {
	// The T11 chunker benchmark adds metric columns no baseline has
	// (fixed-bytes/save, cdc-bytes/save, cdc-dedup-ratio,
	// cdc-wire-bytes/save). They must parse into the document and never
	// trip the gate, whether the baseline predates the benchmark or
	// carries different values.
	line := "BenchmarkTable11CDC-8 \t 1 \t 445729851 ns/op\t 263994 fixed-bytes/save\t 12695 cdc-bytes/save\t 20.68 cdc-dedup-ratio\t 15456 cdc-wire-bytes/save\t 4096 B/op\t 64 allocs/op"
	cur, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("CDC benchmark line not parsed")
	}
	for _, unit := range []string{"fixed-bytes/save", "cdc-bytes/save", "cdc-dedup-ratio", "cdc-wire-bytes/save"} {
		if _, ok := cur.Metrics[unit]; !ok {
			t.Errorf("metric %s lost in parsing: %v", unit, cur.Metrics)
		}
	}
	// Baseline predates T11: the new benchmark and its columns are
	// additions, not violations.
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	report, missing, failures := compareDocs(old, gateDoc(bench("BenchmarkSave-8", 1000, 50), cur), 20, false)
	if failures != 0 || len(missing) != 0 {
		t.Fatalf("new CDC columns tripped the gate: %v", report)
	}
	// Baseline that HAS the columns with very different values (byte
	// counts swing with the edit stream): only allocs/op is
	// gated (ns/op advisory).
	older := cur
	older.Metrics = map[string]float64{
		"ns/op": cur.NsPerOp, "allocs/op": cur.AllocsPerOp,
		"cdc-bytes/save": 1, "cdc-dedup-ratio": 1000,
	}
	if _, _, failures = compareDocs(gateDoc(older), gateDoc(cur), 20, false); failures != 0 {
		t.Error("CDC column drift tripped the gate")
	}
}

func TestCompareToleratesReplicationColumns(t *testing.T) {
	// The T12 replication benchmark adds metric columns no baseline has
	// (observed-k, degraded-avail-%, write-amp-x). They must parse into
	// the document and never trip the gate, whether the baseline predates
	// the benchmark or carries different values — the benchmark itself
	// b.Fatals when they leave their acceptance windows, so the gate has
	// no business second-guessing them as costs.
	line := "BenchmarkTable12Replication-8 \t 1 \t 2204000000 ns/op\t 1 observed-k\t 100 degraded-avail-%\t 3.03 write-amp-x\t 4096 B/op\t 64 allocs/op"
	cur, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("replication benchmark line not parsed")
	}
	for _, unit := range []string{"observed-k", "degraded-avail-%", "write-amp-x"} {
		if _, ok := cur.Metrics[unit]; !ok {
			t.Errorf("metric %s lost in parsing: %v", unit, cur.Metrics)
		}
	}
	// Baseline predates T12: the new benchmark and its columns are
	// additions, not violations.
	old := gateDoc(bench("BenchmarkSave-8", 1000, 50))
	report, missing, failures := compareDocs(old, gateDoc(bench("BenchmarkSave-8", 1000, 50), cur), 20, false)
	if failures != 0 || len(missing) != 0 {
		t.Fatalf("new replication columns tripped the gate: %v", report)
	}
	// Baseline that HAS the columns with very different values (write
	// amplification moves with R, observed k with read-repair timing):
	// only allocs/op is gated (ns/op advisory).
	older := cur
	older.Metrics = map[string]float64{
		"ns/op": cur.NsPerOp, "allocs/op": cur.AllocsPerOp,
		"observed-k": 0.001, "write-amp-x": 0.001, "degraded-avail-%": 0.001,
	}
	if _, _, failures = compareDocs(gateDoc(older), gateDoc(cur), 20, false); failures != 0 {
		t.Error("replication column drift tripped the gate")
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
