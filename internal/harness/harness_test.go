package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// These tests run scaled-down versions of each experiment and assert the
// *shape* findings the paper reports (see DESIGN.md §5) — who wins, what
// scales how — not absolute numbers.

func TestT1InventoryShapes(t *testing.T) {
	rows, err := RunT1Inventory([][2]int{{3, 1}, {4, 2}, {6, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Params section is exactly 8 bytes per parameter.
		if r.ParamsB != 8*r.Params {
			t.Errorf("n=%d: params %dB for P=%d", r.Qubits, r.ParamsB, r.Params)
		}
		// Adam: 2P floats + counter + header → at least 16·P bytes.
		if r.OptimizerB < 16*r.Params {
			t.Errorf("n=%d: optimizer section %dB < 16P", r.Qubits, r.OptimizerB)
		}
		// RNG is 5 streams of 40 bytes.
		if r.RNGB != 200 {
			t.Errorf("RNG section %dB, want 200", r.RNGB)
		}
		// The mid-step accumulator was deliberately filled.
		if r.GradAccumB == 0 {
			t.Errorf("n=%d: empty grad accumulator in inventory", r.Qubits)
		}
		if r.TotalB <= 0 || r.FullSnapshotB <= 0 {
			t.Errorf("n=%d: degenerate totals %+v", r.Qubits, r)
		}
	}
	// Classical state grows with P, not with 2^n: n=6 state stays small
	// while its statevector is 8× the n=3 one.
	if rows[2].StatevectorB != 8*rows[0].StatevectorB {
		t.Errorf("statevector column wrong: %d vs %d", rows[2].StatevectorB, rows[0].StatevectorB)
	}
	if rows[2].TotalB > 100*rows[0].TotalB {
		t.Errorf("classical state exploded with qubit count")
	}
	// Table renders.
	if s := T1Table(rows).String(); !strings.Contains(s, "statevector") {
		t.Errorf("table missing columns:\n%s", s)
	}
}

func TestT2StrategyShapes(t *testing.T) {
	rows, err := RunT2Strategies(12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StrategyRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Every strategy restores a state that continues bitwise-identically.
	for _, r := range rows {
		if !r.BitwiseResume {
			t.Errorf("%s: resume not bitwise identical", r.Name)
		}
		if r.Snapshots == 0 || r.TotalBytes == 0 {
			t.Errorf("%s: nothing written", r.Name)
		}
	}
	// Delta writes fewer bytes than full at the same cadence.
	if byName["delta-sync"].TotalBytes >= byName["full-sync"].TotalBytes {
		t.Errorf("delta (%d B) not smaller than full (%d B)",
			byName["delta-sync"].TotalBytes, byName["full-sync"].TotalBytes)
	}
	// Async removes write time from the foreground.
	for _, spec := range t2Specs {
		if spec.name == "delta-sync" || spec.name == "delta-async" {
			checkForegroundWaitsOnWrites(t, spec)
		}
	}
	// Sub-step checkpointing recovered a mid-step snapshot (step < 12 is
	// allowed; what matters is it restores and continues — asserted above).
	if _, ok := byName["delta-substep"]; !ok {
		t.Errorf("substep strategy missing")
	}
	if s := T2Table(rows).String(); !strings.Contains(s, "bitwise") {
		t.Errorf("table malformed")
	}
}

// checkForegroundWaitsOnWrites asserts, without a clock, where spec's
// manager persists. Over a store that holds every write until released, an
// async manager's saves all return before anything is persisted, and a
// sync one's first save is still inside its held write. (Comparing the two
// rows' measured foreground times instead compares two runs' wall clocks,
// which a loaded host reorders.)
func checkForegroundWaitsOnWrites(t *testing.T, spec strategySpec) {
	t.Helper()
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	opts := spec.options
	opts.Backend = storage.Observe(storage.NewMem(), func(op storage.Op) (int64, error) {
		if !op.After && (op.Kind == storage.OpPut || op.Kind == storage.OpIngest) {
			select {
			case arrived <- struct{}{}:
			default:
			}
			<-release
		}
		return 0, nil
	})
	mgr, err := core.NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	saved := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 3 && err == nil; i++ { // within the async queue's depth
			s := t3State(64)
			s.Step, s.Params[i] = uint64(i), -1
			_, err = mgr.Save(s)
		}
		saved <- err
	}()
	select {
	case <-arrived: // a write reached the store and is held there
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no write reached the store", spec.name)
	}
	if opts.Async {
		select {
		case err := <-saved:
			if err != nil {
				t.Errorf("%s: %v", spec.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: the trainer's saves waited on a held write", spec.name)
		}
		close(release)
	} else {
		select {
		case <-saved:
			t.Errorf("%s: a save returned while its write was held", spec.name)
		default:
		}
		close(release)
		if err := <-saved; err != nil {
			t.Errorf("%s: %v", spec.name, err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Errorf("%s: close: %v", spec.name, err)
	}
}

func TestF1WastedWorkShapes(t *testing.T) {
	job := 10 * time.Hour
	mtbfs := []time.Duration{100 * time.Hour, 20 * time.Hour, 5 * time.Hour, 2 * time.Hour}
	rows, err := RunF1WastedWork(job, mtbfs, 5*time.Second, time.Minute, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Expected time grows monotonically as MTBF shrinks; checkpointing
	// always wins; at MTBF ≪ job the no-checkpoint case blows up.
	for i, r := range rows {
		if r.AnalyticCkpt >= r.AnalyticNoCkpt {
			t.Errorf("MTBF %v: checkpointing did not win (%v vs %v)", r.MTBF, r.AnalyticCkpt, r.AnalyticNoCkpt)
		}
		if i > 0 && r.AnalyticNoCkpt < rows[i-1].AnalyticNoCkpt {
			t.Errorf("no-ckpt E[T] not monotone in failure rate")
		}
		// Simulation within 3× of the analytic value (Monte-Carlo noise,
		// capped trials).
		ratio := float64(r.SimulatedNoCkpt) / float64(r.AnalyticNoCkpt)
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("MTBF %v: simulation %v vs analytic %v (ratio %.2f)",
				r.MTBF, r.SimulatedNoCkpt, r.AnalyticNoCkpt, ratio)
		}
	}
	last := rows[len(rows)-1]
	if last.AnalyticNoCkpt < 5*job {
		t.Errorf("MTBF=job/5 should blow past 5× the job length, got %v", last.AnalyticNoCkpt)
	}
	if last.WastedFracCkpt > 0.2 {
		t.Errorf("checkpointed waste fraction %v too high", last.WastedFracCkpt)
	}
	if s := F1Table(rows).String(); !strings.Contains(s, "MTBF") {
		t.Errorf("table malformed")
	}
}

func TestF2SizeShapes(t *testing.T) {
	rows, err := RunF2Size([][2]int{{3, 1}, {4, 2}, {6, 3}, {8, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if i > 0 {
			prev := rows[i-1]
			// Payload grows with P…
			if r.Params > prev.Params && r.PayloadB <= prev.PayloadB {
				t.Errorf("payload did not grow with P: %d(P=%d) vs %d(P=%d)",
					r.PayloadB, r.Params, prev.PayloadB, prev.Params)
			}
		}
		// …and stays in the KB range even at 8 qubits, while the
		// statevector is 4 KiB at 8 qubits and exponential beyond.
		if r.PayloadB > 1<<20 {
			t.Errorf("payload implausibly large: %d", r.PayloadB)
		}
		// Delta of adjacent steps is smaller than full.
		if r.DeltaFileB >= r.FullFileB {
			t.Errorf("P=%d: delta %d >= full %d", r.Params, r.DeltaFileB, r.FullFileB)
		}
	}
	// Statevector doubles per qubit: n=8 vs n=6 is 4×.
	if rows[3].StatevectorB != 4*rows[2].StatevectorB {
		t.Errorf("statevector scaling wrong")
	}
	if s := F2Table(rows).String(); !strings.Contains(s, "P") {
		t.Errorf("table malformed")
	}
}

func TestF3OverheadShapes(t *testing.T) {
	rows, err := RunF3Overhead(6, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(interval int, async bool) F3Row {
		for _, r := range rows {
			if r.IntervalSteps == interval && r.Async == async {
				return r
			}
		}
		t.Fatalf("row (%d, %v) missing", interval, async)
		return F3Row{}
	}
	// Headline claim: checkpointing every step costs well under 1% of QPU
	// step time even synchronously on local storage.
	if r := get(1, false); r.OverheadLocal > 0.01 {
		t.Errorf("sync per-step overhead %.4f%% exceeds 1%%", r.OverheadLocal*100)
	}
	// Async overhead ≤ sync overhead at the same interval.
	if get(1, true).OverheadLocal > get(1, false).OverheadLocal*1.5 {
		t.Errorf("async overhead not lower: %v vs %v",
			get(1, true).OverheadLocal, get(1, false).OverheadLocal)
	}
	// Less frequent checkpointing costs less.
	if get(3, false).Snapshots >= get(1, false).Snapshots {
		t.Errorf("interval 3 wrote as many snapshots as interval 1")
	}
	// Object store is the most expensive projection for sync.
	if r := get(1, false); r.OverheadObject < r.OverheadNFS {
		t.Errorf("device projections out of order: object %v < nfs %v", r.OverheadObject, r.OverheadNFS)
	}
	if s := F3Table(rows).String(); !strings.Contains(s, "writer") {
		t.Errorf("table malformed")
	}
}

func TestF4GoodputShapes(t *testing.T) {
	// Small job (6 steps ≈ 7 min virtual) under a harsh MTBF (2 min) and a
	// mild one (2 h).
	rows, err := RunF4Goodput(6, []time.Duration{2 * time.Hour, 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	get := func(mtbf time.Duration, strat string) F4Row {
		for _, r := range rows {
			if r.MTBF == mtbf && r.Strategy == strat {
				return r
			}
		}
		t.Fatalf("row (%v, %s) missing", mtbf, strat)
		return F4Row{}
	}
	// Mild failures: everyone completes with goodput near 1.
	for _, strat := range []string{"none", "full-per-step", "delta-substep"} {
		r := get(2*time.Hour, strat)
		if !r.Completed {
			t.Errorf("%s did not complete under mild failures", strat)
		}
		if r.Goodput < 0.8 {
			t.Errorf("%s goodput %v under mild failures", strat, r.Goodput)
		}
	}
	// Harsh failures: checkpointed strategies must beat no-checkpoint on
	// world time (or no-checkpoint fails to finish at all).
	none := get(2*time.Minute, "none")
	full := get(2*time.Minute, "full-per-step")
	sub := get(2*time.Minute, "delta-substep")
	if !full.Completed || !sub.Completed {
		t.Fatalf("checkpointed strategies did not complete: full=%v sub=%v", full.Completed, sub.Completed)
	}
	if none.Completed && none.WorldTime < full.WorldTime {
		t.Errorf("no-checkpoint beat checkpointing under harsh failures: %v vs %v",
			none.WorldTime, full.WorldTime)
	}
	if none.Completed && none.WorldTime < sub.WorldTime {
		t.Errorf("no-checkpoint beat sub-step under harsh failures")
	}
	// Crashes were actually injected.
	if full.Crashes == 0 && sub.Crashes == 0 && none.Crashes == 0 {
		t.Errorf("no crashes under MTBF=2min; failure injection broken")
	}
	if s := F4Table(rows).String(); !strings.Contains(s, "goodput") {
		t.Errorf("table malformed")
	}
}

func TestF5CompressionShapes(t *testing.T) {
	rows, err := RunF5Compression(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All sampled deltas (after the first) are smaller than fulls.
	wins := 0
	for _, r := range rows[1:] {
		if r.DeltaFileB == 0 {
			t.Errorf("step %d: missing delta", r.Step)
			continue
		}
		if r.Ratio > 1 {
			wins++
		}
	}
	if wins < len(rows)-2 {
		t.Errorf("delta beat full only %d/%d times", wins, len(rows)-1)
	}
	// Sub-step deltas (only the accumulator moved) compress far better than
	// step deltas (every parameter moved): at least 2× smaller on average.
	var stepSum, subSum float64
	n := 0
	for _, r := range rows[1:] {
		if r.DeltaFileB > 0 && r.SubDeltaFileB > 0 {
			stepSum += r.Ratio
			subSum += r.SubRatio
			n++
		}
	}
	if n == 0 || subSum/float64(n) < 2*(stepSum/float64(n)) {
		t.Errorf("sub-step deltas not materially smaller: step ratio %.2f, substep ratio %.2f",
			stepSum/float64(n), subSum/float64(n))
	}
	if s := F5Table(rows).String(); !strings.Contains(s, "full/substep") {
		t.Errorf("table malformed")
	}
}

func TestF6DivergenceShapes(t *testing.T) {
	rows, err := RunF6Divergence(16)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]F6Row{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	full := byMode["full-state"]
	popt := byMode["params+optimizer"]
	ponly := byMode["params-only"]

	// The headline: full-state resume is exactly reproducible.
	if !full.Bitwise || full.MaxThetaDiff != 0 || full.LossRMSE != 0 {
		t.Errorf("full-state resume not bitwise identical: %+v", full)
	}
	// Partial resumes diverge (fresh RNG changes every shot draw).
	if popt.Bitwise || popt.MaxThetaDiff == 0 {
		t.Errorf("params+optimizer resume unexpectedly identical: %+v", popt)
	}
	if ponly.Bitwise || ponly.MaxThetaDiff == 0 {
		t.Errorf("params-only resume unexpectedly identical: %+v", ponly)
	}
	if s := F6Table(rows).String(); !strings.Contains(s, "resume mode") {
		t.Errorf("table malformed")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.Add(1, 2.5)
	tb.Add("x", time.Second)
	s := tb.String()
	for _, want := range []string{"T", "a", "bb", "1", "2.5", "x", "1s"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for n, want := range cases {
		if got := humanBytes(n); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
