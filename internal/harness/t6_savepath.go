package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// T6Row is one line of Table 6: the synchronous save-path cost of one
// engine generation on the same slowly drifting state stream. Stall is
// what the training loop feels — the wall time Save blocks in sync mode —
// measured at steady state (the first save primes the chunk store and
// retained body, so it is excluded). SteadyBytes are the bytes that
// actually reached the backend over the steady-state saves.
type T6Row struct {
	Config      string // mono-full | chunked-incremental | chunked-incr-delta
	Strategy    string
	Saves       int
	MeanStall   time.Duration // mean synchronous Save wall time, saves 2..N
	SteadyBytes int64         // bytes written by saves 2..N
	Chunks      int
	CleanPct    float64 // steady-state chunks reused by the dirty-chunk compare
	DedupPct    float64 // steady-state chunks absorbed by content-addressed dedup
	Bitwise     bool    // restored state equals the last saved state
}

// t6Params sizes the state so a save spans ~100 chunks at t6ChunkKB;
// t6Dirty perturbs a single parameter per step, keeping dirty bytes well
// under 1% of the payload — the paper's sub-step checkpoint regime.
const (
	t6Params  = 32768
	t6ChunkKB = 8
)

// t6Configs enumerates the contenders: the monolithic full-snapshot path
// (every save rewrites the whole compressed state) and the incremental
// chunked engine with full and delta strategies (unchanged chunks are
// recognized by a word-wise compare against the retained previous body
// and are neither hashed, compressed nor written again).
var t6Configs = []struct {
	name     string
	strategy core.Strategy
	chunked  bool
}{
	{"mono-full", core.StrategyFull, false},
	{"chunked-incremental", core.StrategyFull, true},
	{"chunked-incr-delta", core.StrategyDelta, true},
}

// RunT6SavePath persists steps snapshots of a 32768-parameter state with
// <1% dirty bytes per step through each save-path generation and reports
// steady-state stall time, bytes written, and the clean/dedup split.
// Every configuration must restore the final state bitwise-identically —
// full, delta, and incremental-chunked kinds alike.
func RunT6SavePath(steps int) ([]T6Row, error) {
	if steps < 3 {
		return nil, fmt.Errorf("harness: T6 needs ≥3 steps")
	}
	var rows []T6Row
	for _, cfg := range t6Configs {
		opt := core.Options{Backend: storage.NewMem(), Strategy: cfg.strategy}
		if cfg.strategy == core.StrategyDelta {
			opt.AnchorEvery = 8
		}
		if cfg.chunked {
			opt.ChunkBytes = t6ChunkKB << 10
			opt.Workers = 4
		}
		mgr, err := core.NewManager(opt)
		if err != nil {
			return nil, fmt.Errorf("harness: T6 %s: %w", cfg.name, err)
		}
		st := t3State(t6Params)
		var stall time.Duration
		var first core.Stats // everything is dirty on the priming save
		for i := 0; i < steps; i++ {
			st = st.Clone()
			st.Step = uint64(i)
			st.Params[i%len(st.Params)] += 1e-9 // <1% of the payload moves
			start := time.Now()
			if _, err := mgr.Save(st); err != nil {
				return nil, fmt.Errorf("harness: T6 %s save %d: %w", cfg.name, i, err)
			}
			if i == 0 {
				first = mgr.Stats()
			} else {
				stall += time.Since(start)
			}
		}
		stats := mgr.Stats()
		if err := mgr.Close(); err != nil {
			return nil, fmt.Errorf("harness: T6 %s: %w", cfg.name, err)
		}
		got, _, err := core.LoadLatestBackendOptions(opt.Backend, nil, core.RestoreOptions{})
		if err != nil {
			return nil, fmt.Errorf("harness: T6 %s restore: %w", cfg.name, err)
		}
		row := T6Row{
			Config:      cfg.name,
			Strategy:    cfg.strategy.String(),
			Saves:       steps,
			MeanStall:   stall / time.Duration(steps-1),
			SteadyBytes: stats.BytesWritten - first.BytesWritten,
			Chunks:      stats.Chunks,
			Bitwise:     got.Equal(st),
		}
		if steady := stats.Chunks - first.Chunks; steady > 0 {
			row.CleanPct = 100 * float64(stats.CleanChunks-first.CleanChunks) / float64(steady)
			row.DedupPct = 100 * float64(stats.DedupHits-first.DedupHits) / float64(steady)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// T6Table renders the rows.
func T6Table(rows []T6Row) *Table {
	t := &Table{
		Title:   "Table 6 — Save-path generations at <1% dirty bytes (32768-param state)",
		Columns: []string{"config", "strategy", "saves", "stall/save", "steady-bytes", "chunks", "clean-%", "dedup-%", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Config, r.Strategy, r.Saves, r.MeanStall.Round(time.Microsecond),
			humanBytes(r.SteadyBytes), r.Chunks,
			fmt.Sprintf("%.1f", r.CleanPct), fmt.Sprintf("%.1f", r.DedupPct), r.Bitwise)
	}
	return t
}
