package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// T7Row is one line of Table 7: N concurrent jobs checkpointing replicas
// of a mostly-shared state — a fine-tuning sweep, an ensemble, restarted
// incarnations — into isolated per-job stores vs one multi-tenant sharded
// store. TotalBytes is the fleet's storage traffic (the dedup win lives
// here: in the shared store, the common base is written once for the
// whole fleet); MeanStall/WorstStall are what each trainer feels while
// the rest of the fleet hammers the same store (the contention cost).
type T7Row struct {
	Mode       string // isolated | shared
	Jobs       int
	Saves      int           // per job
	MeanStall  time.Duration // mean sync Save wall time across all jobs, saves 2..N
	WorstStall time.Duration // worst per-job mean stall
	// CostPerSave is the fleet wall time divided by the number of saves:
	// the throughput-side stall cost of one checkpoint. Per-job wall
	// stalls inflate with CPU oversubscription (J CPU-bound trainers on
	// fewer cores time-slice to ~J× each, shared store or not), but saves
	// overlap, so this quotient stays near the single-job stall unless
	// the store itself serializes the fleet — which makes it the
	// hardware-independent contention signal.
	CostPerSave time.Duration
	TotalBytes  int64   // bytes that reached storage, fleet-wide
	StoreBytes  int64   // resident chunk bytes after the run
	DedupPct    float64 // chunks absorbed by dedup (store hits + clean reuse)
	Bitwise     bool    // every job restored its own final state bitwise
}

// t7Params sizes the replica state (~768 KiB body at 8 KiB chunks ≈ 96
// chunks); t7Window is the per-job dirty slice — every job perturbs only
// its own window, so replicas share every chunk except the diverging
// head.
const (
	t7Params  = 32768
	t7ChunkKB = 8
	t7Window  = 8
)

// t7States yields the save stream of one job: all jobs clone the same
// base state and job j's stream drifts params [j*t7Window, j*t7Window+8)
// a little further each step.
func t7States(job, steps int) []*core.TrainingState {
	out := make([]*core.TrainingState, steps)
	s := t3State(t7Params)
	for i := 0; i < steps; i++ {
		s = s.Clone()
		s.Step = uint64(i)
		s.Params[(job*t7Window+i%t7Window)%len(s.Params)] += 1e-9
		out[i] = s
	}
	return out
}

// t7JobOptions is the per-job manager configuration both modes share.
func t7JobOptions() core.Options {
	return core.Options{
		Strategy:   core.StrategyFull,
		ChunkBytes: t7ChunkKB << 10,
		Workers:    2,
	}
}

// t7Outcome aggregates one mode's fleet run.
type t7Outcome struct {
	meanStall   time.Duration
	worstStall  time.Duration
	costPerSave time.Duration
	totalBytes  int64
	chunks      int
	dedupHits   int
	clean       int
	bitwise     bool
}

// t7RunFleet drives jobs concurrent trainers, one goroutine per job as in
// production, saving steps snapshots each through its manager. restore
// maps job → the backend its state is recovered from afterwards.
func t7RunFleet(jobs, steps int, mgr func(j int) (*core.Manager, error), restore func(j int) (storage.Backend, error)) (t7Outcome, error) {
	managers := make([]*core.Manager, jobs)
	for j := range managers {
		m, err := mgr(j)
		if err != nil {
			return t7Outcome{}, err
		}
		managers[j] = m
	}
	stalls := make([]time.Duration, jobs) // per-job summed steady-state stall
	finals := make([]*core.TrainingState, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	fleetStart := time.Now()
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			states := t7States(j, steps)
			for i, s := range states {
				start := time.Now()
				if _, err := managers[j].Save(s); err != nil {
					errs[j] = err
					return
				}
				if i > 0 { // the priming save populates the store; exclude it
					stalls[j] += time.Since(start)
				}
			}
			finals[j] = states[len(states)-1]
		}(j)
	}
	wg.Wait()
	var out t7Outcome
	out.costPerSave = time.Since(fleetStart) / time.Duration(jobs*steps)
	out.bitwise = true
	for j, m := range managers {
		st := m.Stats()
		out.totalBytes += st.BytesWritten
		out.chunks += st.Chunks
		out.dedupHits += st.DedupHits
		out.clean += st.CleanChunks
		if err := m.Close(); err != nil && errs[j] == nil {
			errs[j] = err
		}
	}
	for j := 0; j < jobs; j++ {
		if errs[j] != nil {
			return t7Outcome{}, fmt.Errorf("job %d: %w", j, errs[j])
		}
		perSave := stalls[j] / time.Duration(steps-1)
		out.meanStall += perSave
		if perSave > out.worstStall {
			out.worstStall = perSave
		}
		b, err := restore(j)
		if err != nil {
			return t7Outcome{}, err
		}
		got, _, err := core.LoadLatestBackendOptions(b, nil, core.RestoreOptions{})
		if err != nil {
			return t7Outcome{}, fmt.Errorf("job %d restore: %w", j, err)
		}
		if !got.Equal(finals[j]) {
			out.bitwise = false
		}
	}
	out.meanStall /= time.Duration(jobs)
	return out, nil
}

// RunT7MultiJob persists steps snapshots per job for each fleet size in
// jobCounts, twice: into isolated per-job stores (the baseline — N
// single-tenant managers, no sharing possible) and into one multi-tenant
// Service (per-job manifest namespaces, one shared chunk store,
// cross-job dedup). Every job must restore its own final state bitwise
// in both modes; the shared mode must never write more bytes than the
// isolated one.
func RunT7MultiJob(jobCounts []int, steps int) ([]T7Row, error) {
	if steps < 3 {
		return nil, fmt.Errorf("harness: T7 needs ≥3 steps")
	}
	var rows []T7Row
	for _, jobs := range jobCounts {
		if jobs < 1 {
			return nil, fmt.Errorf("harness: T7 job count %d", jobs)
		}
		// Isolated: one private store per job.
		backends := make([]storage.Backend, jobs)
		iso, err := t7RunFleet(jobs, steps,
			func(j int) (*core.Manager, error) {
				backends[j] = storage.NewMem()
				opt := t7JobOptions()
				opt.Backend = backends[j]
				return core.NewManager(opt)
			},
			func(j int) (storage.Backend, error) { return backends[j], nil },
		)
		if err != nil {
			return nil, fmt.Errorf("harness: T7 isolated/%d: %w", jobs, err)
		}
		var isoStore int64
		for _, b := range backends {
			n, err := storage.NewChunkStore(storage.WithPrefix(b, core.ChunkPrefix)).TotalBytes()
			if err != nil {
				return nil, err
			}
			isoStore += n
		}
		rows = append(rows, t7Row("isolated", jobs, steps, iso, isoStore))

		// Shared: one Service, one chunk store for the fleet.
		svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
		if err != nil {
			return nil, err
		}
		sh, err := t7RunFleet(jobs, steps,
			func(j int) (*core.Manager, error) {
				return svc.OpenJob(fmt.Sprintf("job%02d", j), t7JobOptions())
			},
			func(j int) (storage.Backend, error) {
				return core.JobBackend(svc.Backend(), fmt.Sprintf("job%02d", j))
			},
		)
		if err != nil {
			return nil, fmt.Errorf("harness: T7 shared/%d: %w", jobs, err)
		}
		if err := svc.Close(); err != nil {
			return nil, err
		}
		shStore, err := svc.ChunkStore().TotalBytes()
		if err != nil {
			return nil, err
		}
		rows = append(rows, t7Row("shared", jobs, steps, sh, shStore))
	}
	return rows, nil
}

func t7Row(mode string, jobs, steps int, o t7Outcome, storeBytes int64) T7Row {
	r := T7Row{
		Mode: mode, Jobs: jobs, Saves: steps,
		MeanStall: o.meanStall, WorstStall: o.worstStall, CostPerSave: o.costPerSave,
		TotalBytes: o.totalBytes, StoreBytes: storeBytes,
		Bitwise: o.bitwise,
	}
	if o.chunks > 0 {
		r.DedupPct = 100 * float64(o.dedupHits+o.clean) / float64(o.chunks)
	}
	return r
}

// T7Table renders the rows.
func T7Table(rows []T7Row) *Table {
	t := &Table{
		Title:   "Table 7 — Multi-tenant checkpointing: isolated stores vs one shared store (replicas sharing a 32768-param base)",
		Columns: []string{"mode", "jobs", "saves/job", "stall/save", "worst-stall", "cost/save", "fleet-bytes", "store-bytes", "dedup-%", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Mode, r.Jobs, r.Saves, r.MeanStall.Round(time.Microsecond),
			r.WorstStall.Round(time.Microsecond), r.CostPerSave.Round(time.Microsecond),
			humanBytes(r.TotalBytes), humanBytes(r.StoreBytes),
			fmt.Sprintf("%.1f", r.DedupPct), r.Bitwise)
	}
	return t
}
