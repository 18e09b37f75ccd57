// Benchmarks regenerating every table and figure of the evaluation (see
// DESIGN.md §5 and EXPERIMENTS.md). Each benchmark runs the corresponding
// harness experiment and reports its headline quantities as custom metrics;
// the full tables are printed by `go run ./cmd/experiments`.
//
// Run with:
//
//	go test -bench=. -benchmem
package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dqnn"
	"repro/internal/grad"
	"repro/internal/harness"
	"repro/internal/observable"
	"repro/internal/quantum"
	"repro/internal/rng"
	"repro/internal/storage"
)

// BenchmarkTable1StateInventory regenerates Table 1: per-component
// checkpoint state sizes. Reported metrics: total classical state bytes for
// the largest shape, and the statevector bytes it displaces.
func BenchmarkTable1StateInventory(b *testing.B) {
	shapes := [][2]int{{4, 2}, {8, 2}, {12, 4}, {16, 4}}
	var rows []harness.InventoryRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunT1Inventory(shapes)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.TotalB), "state-bytes")
	b.ReportMetric(float64(last.FullSnapshotB), "snapshot-bytes")
	b.ReportMetric(float64(last.StatevectorB), "statevector-bytes")
}

// BenchmarkTable2Strategies regenerates Table 2: strategy comparison.
// Metrics: bytes per snapshot for full vs delta, and recovery latency.
func BenchmarkTable2Strategies(b *testing.B) {
	var rows []harness.StrategyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunT2Strategies(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "full-sync":
			b.ReportMetric(float64(r.MeanSnapshotB), "full-snap-bytes")
		case "delta-sync":
			b.ReportMetric(float64(r.MeanSnapshotB), "delta-snap-bytes")
			b.ReportMetric(float64(r.RecoveryTime.Microseconds()), "recovery-µs")
		}
		if !r.BitwiseResume {
			b.Fatalf("strategy %s lost bitwise resume", r.Name)
		}
	}
}

// BenchmarkTable3Backends regenerates Table 3: the checkpoint pipeline
// against each storage backend. Metrics: dedup rate of the chunked path,
// and the modeled object-store write bill for the whole run.
func BenchmarkTable3Backends(b *testing.B) {
	var rows []harness.T3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunT3Backends(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch {
		case r.Backend == "mem" && r.ChunkKB > 0:
			b.ReportMetric(r.DedupPct, "chunked-dedup-%")
		case r.Backend == "tier:object":
			b.ReportMetric(float64(r.Modeled.Milliseconds()), "object-modeled-ms")
		}
	}
}

// BenchmarkTable4Lifecycle regenerates Table 4: the tiered snapshot
// lifecycle. Metrics: hot-tier occupancy with and without demotion, the
// objects the lifecycle engine moved, and the modeled save bill a
// cold-only placement would have paid.
func BenchmarkTable4Lifecycle(b *testing.B) {
	var rows []harness.T4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunT4Lifecycle(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if !r.Bitwise || !r.VerifyOK {
			b.Fatalf("config %s lost bitwise recovery after placement", r.Config)
		}
		switch r.Config {
		case "hot-only":
			b.ReportMetric(float64(r.HotBytes), "hotonly-occ-bytes")
		case "tiered":
			b.ReportMetric(float64(r.HotBytes), "tiered-hot-occ-bytes")
			b.ReportMetric(float64(r.Migrated), "migrated-objects")
		case "cold-only":
			b.ReportMetric(float64(r.SaveBill.Milliseconds()), "cold-save-bill-ms")
		}
	}
}

// BenchmarkTable5Restore regenerates Table 5: serial vs parallel
// streaming restore of multi-chunk snapshot chains, hot and demoted.
// Metrics: recovery wall time per configuration and the parallel speedup;
// any mode losing bitwise recovery fails the benchmark.
func BenchmarkTable5Restore(b *testing.B) {
	var rows []harness.T5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunT5Restore(12)
		if err != nil {
			b.Fatal(err)
		}
	}
	recovery := map[string]time.Duration{}
	for _, r := range rows {
		if !r.Bitwise {
			b.Fatalf("%s/%s restore not bitwise-identical", r.Config, r.Mode)
		}
		recovery[r.Config+"-"+r.Mode] = r.Recovery
		b.ReportMetric(float64(r.Recovery.Microseconds()), r.Config+"-"+r.Mode+"-µs")
	}
	if s, p := recovery["hot-serial"], recovery["hot-parallel"]; p > 0 {
		b.ReportMetric(float64(s)/float64(p), "hot-speedup-x")
	}
	if s, p := recovery["demoted-serial"], recovery["demoted-parallel"]; p > 0 {
		b.ReportMetric(float64(s)/float64(p), "demoted-speedup-x")
	}
}

// BenchmarkTable6SavePath regenerates Table 6: the synchronous save-path
// cost across engine generations at <1% dirty bytes per save. Metrics:
// steady-state stall per save for each config, the incremental engine's
// bytes-written reduction over the monolithic full path (acceptance bar
// ≥10×), and bytes written per steady-state save. Any config
// losing bitwise recovery fails the benchmark; the zero-alloc property of
// the pooled encode stage is locked in by TestPooledEncodeZeroAllocs.
func BenchmarkTable6SavePath(b *testing.B) {
	// Stall times keep the per-config minimum across iterations — the
	// noise-robust estimator for wall timings on shared machines; byte and
	// chunk columns are deterministic, so the last rows serve for those.
	byName := map[string]harness.T6Row{}
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunT6SavePath(16)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Bitwise {
				b.Fatalf("%s restore not bitwise-identical", r.Config)
			}
			if best, ok := byName[r.Config]; ok && best.MeanStall < r.MeanStall {
				r.MeanStall = best.MeanStall
			}
			byName[r.Config] = r
		}
	}
	for name, r := range byName {
		b.ReportMetric(float64(r.MeanStall.Microseconds()), name+"-stall-µs")
	}
	incr := byName["chunked-incremental"]
	mono := byName["mono-full"]
	if incr.SteadyBytes > 0 {
		b.ReportMetric(float64(mono.SteadyBytes)/float64(incr.SteadyBytes), "byteswritten-x")
		b.ReportMetric(float64(incr.SteadyBytes)/float64(incr.Saves-1), "bytes-written/op")
	}
	b.ReportMetric(incr.CleanPct, "clean-%")
}

// BenchmarkTable7MultiJob regenerates Table 7: 1/4/16 concurrent jobs
// checkpointing replicas of a shared base state into one multi-tenant
// sharded store vs isolated per-job stores. Metrics: per-job steady-state
// stall and fleet per-save cost for each mode and fleet size, fleet-wide
// bytes written at 16 jobs, the cross-job dedup win (isolated/shared
// bytes, acceptance bar >1×), and the contention cost — the 16-job
// shared store's per-save fleet cost over the single-job baseline
// (acceptance bar ≤2×; per-save cost rather than per-job wall stall so
// the ratio measures store serialization, not CPU time-slicing of J
// trainers onto fewer cores). The byte ordering is deterministic, so the
// benchmark fails outright if the shared store loses its dedup win or
// any job loses bitwise restore.
func BenchmarkTable7MultiJob(b *testing.B) {
	jobCounts := []int{1, 4, 16}
	// Timing columns keep the per-row minimum across iterations (the
	// noise-robust estimator on shared machines); byte columns are
	// deterministic and come from the last run.
	type key struct {
		mode string
		jobs int
	}
	best := map[key]harness.T7Row{}
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunT7MultiJob(jobCounts, 8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Bitwise {
				b.Fatalf("%s/%d jobs lost bitwise restore", r.Mode, r.Jobs)
			}
			k := key{r.Mode, r.Jobs}
			if prev, ok := best[k]; ok {
				if prev.MeanStall < r.MeanStall {
					r.MeanStall = prev.MeanStall
				}
				if prev.CostPerSave < r.CostPerSave {
					r.CostPerSave = prev.CostPerSave
				}
			}
			best[k] = r
		}
	}
	for k, r := range best {
		b.ReportMetric(float64(r.MeanStall.Microseconds()), fmt.Sprintf("%s-%dj-stall-µs", k.mode, k.jobs))
		b.ReportMetric(float64(r.CostPerSave.Microseconds()), fmt.Sprintf("%s-%dj-cost-µs", k.mode, k.jobs))
	}
	iso16, sh16 := best[key{"isolated", 16}], best[key{"shared", 16}]
	if sh16.TotalBytes >= iso16.TotalBytes {
		b.Fatalf("16-job shared store wrote %d B, isolated %d B — cross-job dedup lost", sh16.TotalBytes, iso16.TotalBytes)
	}
	b.ReportMetric(float64(iso16.TotalBytes)/float64(sh16.TotalBytes), "dedup-win-16j-x")
	b.ReportMetric(float64(sh16.TotalBytes), "bytes-written/op")
	if base := best[key{"shared", 1}].CostPerSave; base > 0 {
		b.ReportMetric(float64(sh16.CostPerSave)/float64(base), "contention-16j-x")
	}
}

// BenchmarkTable8Network regenerates Table 8: a 4-client fleet
// checkpointing replicas of a shared base through one networked
// checkpoint service over loopback TCP. Metrics: per-client steady-state
// stall and its tail, fleet per-save cost, upstream wire bytes per save,
// and the wire reduction — raw snapshot bytes over bytes that actually
// crossed the network (the address-first dedup handshake's win;
// acceptance bar >2×). The benchmark fails outright if any client loses
// bitwise restore through the wire.
func BenchmarkTable8Network(b *testing.B) {
	best := harness.T8Row{}
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunT8Network([]int{4}, 6)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		if !r.Bitwise {
			b.Fatalf("%d clients lost bitwise restore over the wire", r.Clients)
		}
		if best.Saves == 0 || r.MeanStall < best.MeanStall {
			best.MeanStall = r.MeanStall
		}
		if best.Saves == 0 || r.WorstStall < best.WorstStall {
			best.WorstStall = r.WorstStall
		}
		if best.Saves == 0 || r.CostPerSave < best.CostPerSave {
			best.CostPerSave = r.CostPerSave
		}
		r.MeanStall, r.WorstStall, r.CostPerSave = best.MeanStall, best.WorstStall, best.CostPerSave
		best = r
	}
	if best.WireBytes*2 >= best.RawBytes {
		b.Fatalf("wire bytes %d not ≪ raw bytes %d — network dedup lost", best.WireBytes, best.RawBytes)
	}
	b.ReportMetric(float64(best.MeanStall.Microseconds()), "net-stall-µs")
	b.ReportMetric(float64(best.WorstStall.Microseconds()), "net-tail-stall-µs")
	b.ReportMetric(float64(best.CostPerSave.Microseconds()), "net-cost-µs")
	b.ReportMetric(float64(best.WireBytes)/float64(best.Clients*best.Saves), "wire-bytes/op")
	b.ReportMetric(float64(best.RawBytes)/float64(best.WireBytes), "wire-reduction-x")
	b.ReportMetric(best.HasHitPct, "has-hit-%")
}

// BenchmarkTable9GangRestore regenerates Table 9: one saver persists a
// delta chain through the networked service, then a 16-restorer gang
// pulls it concurrently. Metrics: gang wall time, aggregate restore
// bandwidth, cold-tier read amplification with the origin cache
// (acceptance bar ≤1.2×) and without it (the ~N× contender), and the
// single-flight coalescing count. The benchmark fails outright if any
// restorer loses bitwise restore or the cached amplification exceeds
// the bar.
func BenchmarkTable9GangRestore(b *testing.B) {
	best := harness.T9Row{}
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunT9GangRestore([]int{16}, 5)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		if !r.Bitwise {
			b.Fatalf("%d restorers lost bitwise restore over the wire", r.Restorers)
		}
		if r.Amp > 1.2 {
			b.Fatalf("cold read amplification %.2f× exceeds the 1.2× bar", r.Amp)
		}
		if best.Saves == 0 || r.Wall < best.Wall {
			best.Wall, best.MeanWall, best.AggBW = r.Wall, r.MeanWall, r.AggBW
		}
		r.Wall, r.MeanWall, r.AggBW = best.Wall, best.MeanWall, best.AggBW
		best = r
	}
	b.ReportMetric(float64(best.Wall.Microseconds()), "gang-wall-µs")
	b.ReportMetric(float64(best.MeanWall.Microseconds()), "restore-wall-µs")
	b.ReportMetric(best.AggBW, "agg-restore-MiB/s")
	b.ReportMetric(best.Amp, "cold-amp-x")
	b.ReportMetric(best.AmpNoCache, "no-cache-amp-x")
	b.ReportMetric(float64(best.Coalesced), "coalesced-reads")
}

// BenchmarkTable10QoS regenerates Table 10: a mixed-priority fleet (5
// quiet sync tenants + 1 async noisy neighbor) over a two-level store
// with delta tails placed warm, run without and with per-tenant QoS.
// Metrics: the worst quiet-tenant p99 save stall in each mode (best
// observed across iterations — the headline fairness comparison), the
// noisy tenant's throttle count, and the delta-class bytes resident on
// the warm level (the placement evidence). Fails outright on a lost
// bitwise restore, a delta chunk landing hot, or a QoS run that never
// throttled the hog.
func BenchmarkTable10QoS(b *testing.B) {
	var noQoS, withQoS harness.T10Row
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunT10QoS(5, 12)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Bitwise {
				b.Fatalf("%s: a tenant lost bitwise restore", r.Mode)
			}
			if r.HotDeltaBytes != 0 {
				b.Fatalf("%s: %d delta-class bytes leaked onto the hot level", r.Mode, r.HotDeltaBytes)
			}
		}
		if rows[1].Throttled == 0 {
			b.Fatal("QoS run never throttled the noisy tenant")
		}
		if noQoS.Saves == 0 || rows[0].QuietP99 < noQoS.QuietP99 {
			noQoS = rows[0]
		}
		if withQoS.Saves == 0 || rows[1].QuietP99 < withQoS.QuietP99 {
			withQoS = rows[1]
		}
	}
	b.ReportMetric(float64(noQoS.QuietP99.Microseconds()), "quiet-p99-noqos-µs")
	b.ReportMetric(float64(withQoS.QuietP99.Microseconds()), "quiet-p99-qos-µs")
	b.ReportMetric(float64(withQoS.Throttled), "throttled")
	b.ReportMetric(float64(withQoS.WarmDelta), "warm-delta-bytes")
}

// BenchmarkTable11CDC regenerates Table 11: fixed-offset vs
// content-defined chunking on the shift-heavy edit stream (a 64-byte
// splice at the front of a 256 KiB incompressible blob every save).
// Metrics: steady-state bytes written per save for each chunker, the
// CDC dedup ratio, and the wire bytes per save over loopback. Fails
// outright on a lost bitwise restore or if CDC stops beating fixed by
// the 2x acceptance margin.
func BenchmarkTable11CDC(b *testing.B) {
	var fixed, cdc harness.T11Row
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunT11CDC(6)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Bitwise {
				b.Fatalf("%s/%s: restore not bitwise", r.Workload, r.Chunker)
			}
			if r.Workload != "shift" {
				continue
			}
			if r.Chunker == "fixed" {
				fixed = r
			} else {
				cdc = r
			}
		}
		if cdc.BytesPerSave*2 > fixed.BytesPerSave {
			b.Fatalf("shift: cdc %d B/save not ≤ half of fixed %d B/save",
				cdc.BytesPerSave, fixed.BytesPerSave)
		}
	}
	b.ReportMetric(float64(fixed.BytesPerSave), "fixed-bytes/save")
	b.ReportMetric(float64(cdc.BytesPerSave), "cdc-bytes/save")
	b.ReportMetric(cdc.DedupRatio, "cdc-dedup-ratio")
	b.ReportMetric(float64(cdc.WirePerSave), "cdc-wire-bytes/save")
}

// BenchmarkTable12Replication regenerates Table 12: the 3-way replicated
// store (W=2, R=2) under crash, slow-replica and split-brain fault
// plans. Metrics: the worst k-atomicity bound the online consistency
// audit observed across scenarios, restore availability with 1 of 3
// replicas dead, and the healthy run's write amplification. Fails
// outright on a consistency violation, a lost degraded restore, a GC
// sweep that reaps quorum-referenced chunks, or amplification drifting
// from R.
func BenchmarkTable12Replication(b *testing.B) {
	var rows []harness.T12Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunT12Replication(3, 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Violations != 0 {
				b.Fatalf("%s: %d consistency violations", r.Scenario, r.Violations)
			}
			if r.AvailPct != 100 {
				b.Fatalf("%s: availability %.0f%% with 1-of-3 dead", r.Scenario, r.AvailPct)
			}
			if !r.GCSafe || !r.Bitwise {
				b.Fatalf("%s: gc-safe=%v bitwise=%v", r.Scenario, r.GCSafe, r.Bitwise)
			}
			if r.WriteAmp < 2 || r.WriteAmp > 4 {
				b.Fatalf("%s: write amplification %.2f, want ≈3", r.Scenario, r.WriteAmp)
			}
		}
	}
	worstK, amp := 0, 0.0
	for _, r := range rows {
		if r.MinK > worstK {
			worstK = r.MinK
		}
		if r.Scenario == "healthy" {
			amp = r.WriteAmp
		}
	}
	b.ReportMetric(float64(worstK), "observed-k")
	b.ReportMetric(100, "degraded-avail-%")
	b.ReportMetric(amp, "write-amp-x")
}

// BenchmarkFig1WastedWork regenerates Figure 1: expected completion time
// without checkpointing vs MTBF. Metric: the blow-up factor E[T]/W at
// MTBF = W/5.
func BenchmarkFig1WastedWork(b *testing.B) {
	job := 10 * time.Hour
	mtbfs := []time.Duration{100 * time.Hour, 20 * time.Hour, 5 * time.Hour, 2 * time.Hour}
	var rows []harness.F1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunF1WastedWork(job, mtbfs, 5*time.Second, time.Minute, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.AnalyticNoCkpt)/float64(job), "noCkpt-blowup-x")
	b.ReportMetric(float64(last.AnalyticCkpt)/float64(job), "ckpt-blowup-x")
}

// BenchmarkFig2Size regenerates Figure 2: checkpoint size vs parameter
// count. Metrics: payload bytes per parameter, and the full:delta ratio at
// the largest shape.
func BenchmarkFig2Size(b *testing.B) {
	shapes := [][2]int{{3, 1}, {6, 2}, {8, 3}, {10, 4}}
	var rows []harness.F2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunF2Size(shapes)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.PayloadB)/float64(last.Params), "payload-bytes-per-param")
	b.ReportMetric(float64(last.FullFileB)/float64(last.DeltaFileB), "full-to-delta-x")
}

// BenchmarkFig3Overhead regenerates Figure 3: checkpoint overhead vs
// interval, sync vs async. Metric: per-step sync overhead at interval 1 in
// percent of QPU step time.
func BenchmarkFig3Overhead(b *testing.B) {
	var rows []harness.F3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunF3Overhead(8, []int{1, 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.IntervalSteps == 1 && !r.Async {
			b.ReportMetric(r.OverheadLocal*100, "sync-overhead-%")
		}
		if r.IntervalSteps == 1 && r.Async {
			b.ReportMetric(r.OverheadLocal*100, "async-overhead-%")
		}
	}
}

// BenchmarkFig4Goodput regenerates Figure 4: goodput under failures.
// Metrics: goodput of each strategy at the harsh MTBF point.
func BenchmarkFig4Goodput(b *testing.B) {
	var rows []harness.F4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunF4Goodput(6, []time.Duration{2 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Strategy {
		case "none":
			b.ReportMetric(r.Goodput, "goodput-none")
		case "full-per-step":
			b.ReportMetric(r.Goodput, "goodput-full")
		case "delta-substep":
			b.ReportMetric(r.Goodput, "goodput-substep")
		}
	}
}

// BenchmarkFig5Compression regenerates Figure 5: delta compression across
// the trajectory. Metric: mean full:delta ratio.
func BenchmarkFig5Compression(b *testing.B) {
	var rows []harness.F5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunF5Compression(24, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum, subSum float64
	n := 0
	for _, r := range rows {
		if r.DeltaFileB > 0 && r.SubDeltaFileB > 0 {
			sum += r.Ratio
			subSum += r.SubRatio
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "mean-full-to-delta-x")
	b.ReportMetric(subSum/float64(n), "mean-full-to-substep-x")
}

// BenchmarkFig6Divergence regenerates Figure 6: trajectory divergence under
// partial-state resume. Metrics: max parameter divergence for params-only
// resume (must be > 0) and for full-state resume (must be 0).
func BenchmarkFig6Divergence(b *testing.B) {
	var rows []harness.F6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunF6Divergence(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Mode {
		case "full-state":
			b.ReportMetric(r.MaxThetaDiff, "full-max-dtheta")
			if !r.Bitwise {
				b.Fatal("full-state resume not bitwise")
			}
		case "params-only":
			b.ReportMetric(r.MaxThetaDiff, "paramsonly-max-dtheta")
		}
	}
}

// tempStore opens a fresh temporary checkpoint directory as a local store.
func tempStore(b *testing.B) storage.Backend {
	b.Helper()
	store, err := core.DirBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkCheckpointSave measures the raw foreground cost of one full
// checkpoint save (encode + compress + atomic write) for a mid-size state.
func BenchmarkCheckpointSave(b *testing.B) {
	mgr, err := core.NewManager(core.Options{Backend: tempStore(b), Strategy: core.StrategyFull})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	st := benchState(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step = uint64(i)
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSaveDelta measures one delta save.
func BenchmarkCheckpointSaveDelta(b *testing.B) {
	mgr, err := core.NewManager(core.Options{Backend: tempStore(b), Strategy: core.StrategyDelta, AnchorEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	st := benchState(2048)
	if _, err := mgr.Save(st); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSaveChunked measures one chunked delta save with a
// 4-worker pipeline (content-addressed dedup against the chunk store).
func BenchmarkCheckpointSaveChunked(b *testing.B) {
	mgr, err := core.NewManager(core.Options{
		Backend: tempStore(b), Strategy: core.StrategyDelta, AnchorEvery: 1 << 30,
		Workers: 4, ChunkBytes: 8 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	st := benchState(2048)
	if _, err := mgr.Save(st); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := mgr.Stats()
	if stats.Chunks > 0 {
		b.ReportMetric(100*float64(stats.DedupHits)/float64(stats.Chunks), "dedup-%")
	}
}

// BenchmarkRecovery measures LoadLatestBackendOptions over a directory
// with a delta chain.
func BenchmarkRecovery(b *testing.B) {
	store := tempStore(b)
	mgr, err := core.NewManager(core.Options{Backend: store, Strategy: core.StrategyDelta, AnchorEvery: 8})
	if err != nil {
		b.Fatal(err)
	}
	st := benchState(2048)
	for i := 0; i < 20; i++ {
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	mgr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.LoadLatestBackendOptions(store, nil, core.RestoreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePayload measures the canonical serialization alone.
func BenchmarkEncodePayload(b *testing.B) {
	st := benchState(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EncodePayload(st); err != nil {
			b.Fatal(err)
		}
	}
}

// benchState builds a TrainingState with p parameters and Adam-sized
// optimizer state.
func benchState(p int) *core.TrainingState {
	st := core.NewTrainingState()
	st.Params = make([]float64, p)
	for i := range st.Params {
		st.Params[i] = float64(i) * 0.137
	}
	st.Optimizer = make([]byte, 16*p+64)
	st.RNG = make([]byte, 200)
	st.LossHistory = make([]float64, 100)
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "bench", ProblemFP: "bench", OptimizerName: "adam"}
	return st
}

// BenchmarkAblationAnchorSweep regenerates ablation A1: the anchor-period
// tradeoff between write volume and recovery latency.
func BenchmarkAblationAnchorSweep(b *testing.B) {
	var rows []harness.A1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunA1AnchorSweep(12, []int{1, 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].TotalBytes), "bytes-anchor1")
	b.ReportMetric(float64(rows[1].TotalBytes), "bytes-anchor12")
	b.ReportMetric(float64(rows[1].MeanRecovery.Microseconds()), "recovery-chain-µs")
}

// BenchmarkAblationGrouping regenerates ablation A2: measurement grouping's
// shot-bill reduction.
func BenchmarkAblationGrouping(b *testing.B) {
	var rows []harness.A2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunA2Grouping(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].ShotsPerStep), "shots-termwise")
	b.ReportMetric(float64(rows[1].ShotsPerStep), "shots-grouped")
}

// --- Substrate microbenchmarks (simulator and gradient primitives) ---

// BenchmarkApply1Gate16q measures single-qubit gate application on a
// 16-qubit statevector (the simulator's hot loop).
func BenchmarkApply1Gate16q(b *testing.B) {
	s := quantum.New(16)
	m := quantum.RY(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply1(&m, i%16)
	}
}

// BenchmarkApply2Gate16q measures two-qubit gate application.
func BenchmarkApply2Gate16q(b *testing.B) {
	s := quantum.New(16)
	m := quantum.RZZ(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply2(&m, i%15, (i%15)+1)
	}
}

// BenchmarkSample1kShots12q measures measurement sampling.
func BenchmarkSample1kShots12q(b *testing.B) {
	s := quantum.New(12)
	h := quantum.GateH
	for q := 0; q < 12; q++ {
		s.Apply1(&h, q)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleShots(r, 1000)
	}
}

// BenchmarkParameterShiftStep measures one full exact-gradient optimizer
// step of the n=4 L=2 VQE workload (the unit of Figure 3's denominators).
func BenchmarkParameterShiftStep(b *testing.B) {
	c := circuit.HardwareEfficient(4, 2)
	h := observable.TFIM(4, 1.0, 0.7)
	theta := c.InitParams(rng.New(2))
	eval := grad.EvaluatorFunc(func(th []float64, sh circuit.Shift) (float64, error) {
		s := quantum.New(4)
		c.Run(s, th, sh)
		return h.Expectation(s), nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := grad.NewAccumulator(len(grad.Plan(c)))
		if err := grad.ParameterShift(c, theta, eval, acc, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := acc.Gradient(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDQNNFeedForward measures one dissipative feed-forward through a
// 1-2-1 network (density-matrix path).
func BenchmarkDQNNFeedForward(b *testing.B) {
	net, err := dqnn.New([]int{1, 2, 1})
	if err != nil {
		b.Fatal(err)
	}
	theta := net.InitParams(rng.New(3))
	in := quantum.RandomState(1, rng.New(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.FeedForwardPure(in, theta, -1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
