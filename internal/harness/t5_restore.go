package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// T5Row is one line of Table 5: serial vs parallel streaming restore of
// the same multi-chunk checkpoint stream, with the chain resident hot
// (NVMe level) and fully demoted to the cold level. Recovery wall time is
// dominated by chunk fetch + flate decompression, which is exactly what
// the parallel engine fans out; the modeled read bill reports the virtual
// device traffic, which is placement's cost and identical across modes.
type T5Row struct {
	Config    string // chain placement: hot | demoted
	Mode      string // serial | parallel
	Workers   int
	Snapshots int
	ChainLen  int           // snapshots read to reconstruct the restored state
	Recovery  time.Duration // LoadLatestBackendOptions wall time
	RecBill   time.Duration // modeled device bill of the restore reads
	Bitwise   bool          // recovered state equals the last saved state
}

// t5Workers sizes the parallel contender's pool; t5ChunkKB keeps single
// snapshots spanning dozens of chunks so there is fan-out to exploit.
const (
	t5Workers     = 8
	t5AnchorEvery = 4
	t5ChunkKB     = 8
	t5Params      = 16384
)

// RunT5Restore persists steps snapshots of a 16384-parameter drifting
// state through the chunked delta pipeline onto a two-level tiered
// backend, then restores the newest state serially and through the
// parallel engine — once with the chain hot and once with every object
// demoted to the cold level (resuming long after a run went cold). Both
// modes must recover bitwise-identical state.
func RunT5Restore(steps int) ([]T5Row, error) {
	if steps < t5AnchorEvery {
		return nil, fmt.Errorf("harness: T5 needs ≥%d steps", t5AnchorEvery)
	}
	var rows []T5Row
	for _, demoted := range []bool{false, true} {
		name := "hot"
		if demoted {
			name = "demoted"
		}
		r, err := runT5Config(name, demoted, steps)
		if err != nil {
			return nil, fmt.Errorf("harness: T5 %s: %w", name, err)
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func runT5Config(name string, demoted bool, steps int) ([]T5Row, error) {
	devices := []storage.Device{storage.DeviceNVMe, storage.DeviceObject}
	tiers := make([]*storage.Tier, len(devices))
	levels := make([]storage.Level, len(devices))
	for i, dev := range devices {
		tiers[i] = storage.NewTier(storage.NewMem(), dev)
		levels[i] = storage.Level{Name: dev.Name, Backend: tiers[i]}
	}
	tiered, err := storage.NewTiered(levels...)
	if err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(core.Options{
		Backend:     tiered,
		Strategy:    core.StrategyDelta,
		AnchorEvery: t5AnchorEvery,
		ChunkBytes:  t5ChunkKB << 10,
		Workers:     4,
	})
	if err != nil {
		return nil, err
	}

	st := t3State(t5Params)
	for i := 0; i < steps; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		st.LossHistory = append(st.LossHistory, 1.0/float64(i+1))
		if _, err := mgr.Save(st); err != nil {
			return nil, err
		}
	}
	if err := mgr.Close(); err != nil {
		return nil, err
	}
	if demoted {
		// Resume-after-cold scenario: every manifest and chunk lives on the
		// object level, so the restore pays cold reads for the whole chain.
		keys, err := tiered.List("")
		if err != nil {
			return nil, err
		}
		cold := len(levels) - 1
		for _, k := range keys {
			if _, err := tiered.CopyTo(k, cold); err != nil {
				return nil, err
			}
			if _, err := tiered.DeleteOutside(k, cold); err != nil {
				return nil, err
			}
		}
	}

	sumModeled := func() time.Duration {
		var total time.Duration
		for _, t := range tiers {
			total += t.Stats().Modeled
		}
		return total
	}
	modes := []struct {
		name string
		opts core.RestoreOptions
	}{
		{"serial", core.RestoreOptions{}},
		{"parallel", core.RestoreOptions{Workers: t5Workers, Prefetch: 2 * t5Workers}},
	}
	var rows []T5Row
	for _, mode := range modes {
		billBefore := sumModeled()
		start := time.Now()
		got, report, err := core.LoadLatestBackendOptions(tiered, nil, mode.opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, T5Row{
			Config:    name,
			Mode:      mode.name,
			Workers:   max(1, mode.opts.Workers),
			Snapshots: steps,
			ChainLen:  report.ChainLen,
			Recovery:  time.Since(start),
			RecBill:   sumModeled() - billBefore,
			Bitwise:   got.Equal(st),
		})
	}
	return rows, nil
}

// T5Table renders the rows.
func T5Table(rows []T5Row) *Table {
	t := &Table{
		Title:   "Table 5 — Serial vs parallel streaming restore (chunked delta chains, 16384-param state)",
		Columns: []string{"config", "mode", "workers", "snaps", "chain", "recovery", "rec-bill", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Config, r.Mode, r.Workers, r.Snapshots, r.ChainLen,
			r.Recovery, r.RecBill.Round(time.Microsecond), r.Bitwise)
	}
	return t
}
