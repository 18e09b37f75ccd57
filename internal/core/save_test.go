package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/storage"
)

// stageNames are SaveCost's stages in the order a save runs them, as the
// save benchmarks' <stage>-ns/op columns name them.
var stageNames = [...]string{"encode", "seal", "delta", "queue", "plan", "chunks", "hashwait", "commit", "retain"}

// stageTimes lists c's stages in stageNames' order.
func stageTimes(c SaveCost) [len(stageNames)]time.Duration {
	return [...]time.Duration{c.Encode, c.Seal, c.Delta, c.Queue, c.Plan, c.Chunks, c.HashWait, c.Commit, c.Retain}
}

// reportStages reports what a benchmark's timed saves spent in each stage,
// from the ledger before and after them, as advisory <stage>-ns/op columns.
func reportStages(b *testing.B, spent [len(stageNames)]time.Duration) {
	for i, d := range spent {
		b.ReportMetric(float64(d)/float64(b.N), stageNames[i]+"-ns/op")
	}
}

// addStages adds what the ledger charged between before and after to spent.
func addStages(spent *[len(stageNames)]time.Duration, before, after SaveCost) {
	was, now := stageTimes(before), stageTimes(after)
	for i := range spent {
		spent[i] += now[i] - was[i]
	}
}

// TestSaveCostSumsToWall holds the save ledger to the clock. Over 100 saves
// of each case — anchors and deltas, monolithic and chunked under both
// boundary rules, one worker and four — the stages of a synchronous save
// add up to Save's own wall time with under 5 % unattributed, and the
// trainer's stages of an asynchronous save to its Save's. Every stage the
// case runs is charged something, every other one nothing, and SaveResult's
// two timers are exactly their stage sums.
func TestSaveCostSumsToWall(t *testing.T) {
	const saves, window = 100, 96
	params := 32 << 10
	if raceEnabled {
		params = 4 << 10 // the same saves, at a size race instrumentation runs in seconds
	}
	fixed := Options{Strategy: StrategyDelta, AnchorEvery: 8, Retain: 2, ChunkBytes: 8 << 10}
	cdc := fixed
	cdc.Chunker = ChunkerCDC
	with := func(o Options, workers int, async bool) Options {
		o.Workers, o.Async = workers, async
		return o
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"monolithic-anchors", Options{Strategy: StrategyFull, Retain: 2}},
		{"monolithic-deltas", Options{Strategy: StrategyDelta, AnchorEvery: 8, Retain: 2}},
		{"fixed-w1", with(fixed, 1, false)},
		{"fixed-w4", with(fixed, 4, false)},
		{"cdc-w1", with(cdc, 1, false)},
		{"cdc-w4", with(cdc, 4, false)},
		{"async-fixed-w4", with(fixed, 4, true)},
		{"async-monolithic", Options{Strategy: StrategyDelta, AnchorEvery: 8, Async: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			s := NewTrainingState()
			s.Params = make([]float64, params)
			for i := range s.Params {
				s.Params[i] = r.NormFloat64()
			}
			opt := tc.opt
			opt.Backend = storage.NewMem()
			m, err := NewManager(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var wall, encode, write time.Duration
			for i := 0; i < saves; i++ {
				for j := 0; j < window; j++ {
					s.Params[(i*window+j)%params] += 1e-3
				}
				s.Step++
				start := time.Now()
				res, err := m.Save(s)
				wall += time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				encode += res.Encode
				write += res.Write
			}
			if err := m.Barrier(); err != nil {
				t.Fatal(err)
			}
			c := m.Stats().Cost
			trainer := c.Stall(opt.Async)
			if rest := wall - trainer; rest < 0 || rest > wall/20 {
				t.Errorf("the trainer's stages sum to %v of a %v wall: %v unattributed", trainer, wall, rest)
			}
			if want := c.Encode + c.Seal; encode != want {
				t.Errorf("Σ SaveResult.Encode = %v, Encode + Seal = %v", encode, want)
			}
			if want := c.Persist(); opt.Async && write != 0 || !opt.Async && write != want {
				t.Errorf("Σ SaveResult.Write = %v, Persist = %v (async %v)", write, want, opt.Async)
			}
			chunked := opt.ChunkBytes > 0
			ran := [len(stageNames)]bool{true, true, true, opt.Async, chunked, chunked, true, true, true}
			for i, d := range stageTimes(c) {
				if ran[i] != (d > 0) {
					t.Errorf("stage %s charged %v (runs here: %v)", stageNames[i], d, ran[i])
				}
			}
			t.Logf("wall %v, stages %v", wall, stageTimes(c))
		})
	}
}
