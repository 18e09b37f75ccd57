package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// T4Row is one line of Table 4: the tiered snapshot lifecycle. The same
// deterministic drifting checkpoint stream is persisted hot-only, tiered
// with chain demotion, and cold-only; the row reports foreground save
// latency, end-of-run occupancy per temperature, migration volume, the
// modeled I/O bill split into save-path vs total, and recovery cost and
// fidelity after demotion.
type T4Row struct {
	Config    string
	Levels    string
	Snapshots int
	MeanSave  time.Duration // mean save stall, from the save ledger (core.Stats.Cost)
	HotBytes  int64         // bytes resident on the hot level at end of run
	ColdBytes int64         // bytes resident below the hot level
	Migrated  int           // objects demoted by the lifecycle engine
	SaveBill  time.Duration // modeled write bill of the save path (hot-level Puts)
	TotalBill time.Duration // total modeled bill incl. migration traffic
	RecBill   time.Duration // modeled bill of one LoadLatestBackendOptions recovery
	Recovery  time.Duration // recovery wall time
	Bitwise   bool          // recovered state equals the last saved state
	VerifyOK  bool          // every snapshot resolves from whatever level it lives on
}

// t4Spec describes one Table 4 contender.
type t4Spec struct {
	name    string
	devices []storage.Device
	pol     core.LifecyclePolicy
}

// t4AnchorEvery bounds chains so a short run still produces several
// demotable chains.
const t4AnchorEvery = 4

// RunT4Lifecycle persists steps snapshots of a 2048-parameter drifting
// training state under three placements — hot-only (NVMe), tiered with
// demotion (NVMe over object store, keeping the two newest anchor chains
// hot), and cold-only (object store) — and measures what each pays and
// what survives where.
func RunT4Lifecycle(steps int) ([]T4Row, error) {
	if steps < 2*t4AnchorEvery {
		return nil, fmt.Errorf("harness: T4 needs ≥%d steps", 2*t4AnchorEvery)
	}
	specs := []t4Spec{
		{name: "hot-only", devices: []storage.Device{storage.DeviceNVMe}},
		{name: "tiered", devices: []storage.Device{storage.DeviceNVMe, storage.DeviceObject},
			pol: core.LifecyclePolicy{KeepHotChains: 2}},
		{name: "cold-only", devices: []storage.Device{storage.DeviceObject}},
	}
	var rows []T4Row
	for _, spec := range specs {
		row, err := runT4Spec(spec, steps)
		if err != nil {
			return nil, fmt.Errorf("harness: T4 %s: %w", spec.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runT4Spec(spec t4Spec, steps int) (T4Row, error) {
	tiers := make([]*storage.Tier, len(spec.devices))
	levels := make([]storage.Level, len(spec.devices))
	names := make([]string, len(spec.devices))
	for i, dev := range spec.devices {
		tiers[i] = storage.NewTier(storage.NewMem(), dev)
		levels[i] = storage.Level{Name: dev.Name, Backend: tiers[i]}
		names[i] = dev.Name
	}
	tiered, err := storage.NewTiered(levels...)
	if err != nil {
		return T4Row{}, err
	}
	mgr, err := core.NewManager(core.Options{
		Backend:     tiered,
		Lifecycle:   spec.pol,
		Strategy:    core.StrategyDelta,
		AnchorEvery: t4AnchorEvery,
		ChunkBytes:  8 << 10,
	})
	if err != nil {
		return T4Row{}, err
	}

	st := t3State(2048)
	for i := 0; i < steps; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		st.LossHistory = append(st.LossHistory, 1.0/float64(i+1))
		if _, err := mgr.Save(st); err != nil {
			return T4Row{}, err
		}
	}
	if err := mgr.Close(); err != nil {
		return T4Row{}, err
	}
	stats := mgr.Stats()

	sumModeled := func() time.Duration {
		var total time.Duration
		for _, t := range tiers {
			total += t.Stats().Modeled
		}
		return total
	}
	row := T4Row{
		Config:    spec.name,
		Levels:    strings.Join(names, "+"),
		Snapshots: stats.Snapshots,
		MeanSave:  stats.Cost.Stall(false) / time.Duration(steps),
		Migrated:  stats.Migrated,
		SaveBill:  tiers[0].Stats().ModeledWrite,
		TotalBill: sumModeled(),
	}
	occ, err := tiered.Occupancy()
	if err != nil {
		return T4Row{}, err
	}
	row.HotBytes = occ[0].Bytes
	for _, o := range occ[1:] {
		row.ColdBytes += o.Bytes
	}

	billBefore := sumModeled()
	got, rec, err := core.LoadLatestBackendOptions(tiered, nil, core.RestoreOptions{})
	if err != nil {
		return T4Row{}, err
	}
	row.Recovery = rec.Total()
	row.RecBill = sumModeled() - billBefore
	row.Bitwise = got.Equal(st)

	// Every snapshot — including demoted chains — must still resolve
	// bitwise from whatever level it lives on.
	ok, problems, err := core.VerifyBackend(tiered)
	if err != nil {
		return T4Row{}, err
	}
	row.VerifyOK = len(problems) == 0 && ok == stats.Snapshots
	return row, nil
}

// T4Table renders the rows.
func T4Table(rows []T4Row) *Table {
	t := &Table{
		Title: "Table 4 — Tiered snapshot lifecycle (delta+chunked strategy, 2048-param state)",
		Columns: []string{"config", "levels", "snaps", "mean-save", "hot-occ", "cold-occ",
			"migrated", "save-bill", "total-bill", "rec-bill", "recovery", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Config, r.Levels, r.Snapshots, r.MeanSave, humanBytes(r.HotBytes),
			humanBytes(r.ColdBytes), r.Migrated, r.SaveBill.Round(time.Microsecond),
			r.TotalBill.Round(time.Microsecond), r.RecBill.Round(time.Microsecond),
			r.Recovery, r.Bitwise && r.VerifyOK)
	}
	return t
}
