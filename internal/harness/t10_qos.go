package harness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// T10Row is one line of Table 10: a mixed-priority fleet — quiet
// interactive trainers doing sync saves next to one noisy neighbor
// streaming large async checkpoints — sharing a two-level store with
// class-aware placement (delta tails land warm), run with and without
// per-tenant QoS. QuietP99 is the headline: the worst per-tenant p99
// sync-save stall among the quiet tenants, i.e. what a well-behaved job
// feels when a neighbor misbehaves. The occupancy columns show where the
// bytes actually live by write class — the placement evidence.
type T10Row struct {
	Mode       string // no-qos | qos
	Quiet      int    // quiet tenants (the fleet also has one noisy tenant)
	Saves      int    // sync saves per quiet tenant
	NoisySaves int    // async saves the noisy tenant pushed through

	QuietMean time.Duration // mean quiet-tenant save stall, saves 2..N
	QuietP99  time.Duration // worst per-tenant p99 quiet save stall
	NoisyP99  time.Duration // noisy tenant's p99 Save call (enqueue) time

	Throttled    int64         // QoS pacing/refusal events charged to the noisy tenant
	ThrottleWait time.Duration // total time QoS held the noisy tenant back

	HotBytes      int64 // bytes resident on the hot level after the run
	HotDeltaBytes int64 // delta-class bytes that ended up hot (placement leak)
	WarmDelta     int64 // delta-class bytes resident on the warm level
	Bitwise       bool  // every tenant, noisy included, restored bitwise
}

// Fleet shape: quiet tenants checkpoint a modest state with a small
// dirty window (classic fine-tuning traffic); the noisy neighbor streams
// a 16× larger state and dirties every chunk every step, so nothing
// dedups and every save is full-price. t10NoisyRate is the QoS rate the
// "qos" mode clamps the noisy tenant to — low enough that pacing
// backpressure dominates its save loop, freeing the machine for the
// quiet tenants.
const (
	t10QuietParams = 4096
	t10NoisyParams = 65536
	t10ChunkKB     = 8
	t10Window      = 8
	t10NoisyID     = "noisy"
	// The clamp must sit well below the noisy tenant's *slowest* plausible
	// offered rate: a ~512 KiB save needs ≳1 s of bucket refill at this
	// rate, so even a race-instrumented run (persists an order of
	// magnitude slower) still overruns the bucket and gets paced.
	t10NoisyRate  = 512 << 10 // bytes/s
	t10NoisyBurst = 64 << 10
	t10NoisyFloor = 4 // noisy saves at least this many times, stop or not
)

// RunT10QoS runs the mixed fleet twice — QoS off, then QoS rate-limiting
// the noisy tenant — over identical stores and workloads. Both runs use
// class-aware placement (DeltaToWarm), so the occupancy columns double as
// the placement regression check.
func RunT10QoS(quiet, steps int) ([]T10Row, error) {
	if quiet < 1 {
		return nil, fmt.Errorf("harness: T10 needs ≥1 quiet tenant")
	}
	if steps < 4 {
		return nil, fmt.Errorf("harness: T10 needs ≥4 steps")
	}
	var rows []T10Row
	for _, mode := range []string{"no-qos", "qos"} {
		row, err := t10Run(mode, quiet, steps)
		if err != nil {
			return nil, fmt.Errorf("harness: T10 %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// t10Run drives one fleet: quiet sync tenants save steps snapshots each
// while the noisy tenant streams async saves until they finish.
func t10Run(mode string, quiet, steps int) (T10Row, error) {
	hot := storage.NewTier(storage.NewMem(), storage.DeviceNVMe)
	warm := storage.NewTier(storage.NewMem(), storage.DeviceNFS)
	tb, err := storage.NewTiered(
		storage.Level{Name: storage.DeviceNVMe.Name, Backend: hot},
		storage.Level{Name: storage.DeviceNFS.Name, Backend: warm},
	)
	if err != nil {
		return T10Row{}, err
	}
	var qos core.QoSConfig
	if mode == "qos" {
		qos.Tenants = map[string]core.TenantQoS{
			t10NoisyID: {RateBytesPerSec: t10NoisyRate, BurstBytes: t10NoisyBurst},
		}
	}
	svc, err := core.NewService(core.ServiceOptions{
		Backend:   tb,
		Placement: storage.DeltaToWarm(storage.DeviceNFS.Name),
		QoS:       qos,
	})
	if err != nil {
		return T10Row{}, err
	}

	// The noisy neighbor: async large-state saves, every chunk dirty every
	// step, running until the quiet fleet is done (with a floor so even an
	// instant quiet run leaves noisy evidence in the store).
	noisyMgr, err := svc.OpenJob(t10NoisyID, core.Options{
		Strategy:   core.StrategyFull,
		Async:      true,
		ChunkBytes: t10ChunkKB << 10,
		Workers:    2,
	})
	if err != nil {
		return T10Row{}, err
	}
	var quietDone atomic.Bool
	var noisyStalls []time.Duration
	var noisyFinal *core.TrainingState
	var noisyErr error
	noisyExit := make(chan struct{})
	go func() {
		defer close(noisyExit)
		s := t3State(t10NoisyParams)
		for i := 0; i < t10NoisyFloor || !quietDone.Load(); i++ {
			s = s.Clone()
			s.Step = uint64(i)
			for p := 0; p < len(s.Params); p += 64 {
				s.Params[p] += float64(i) + 1e-9
			}
			start := time.Now()
			if _, err := noisyMgr.Save(s); err != nil {
				noisyErr = err
				return
			}
			noisyStalls = append(noisyStalls, time.Since(start))
			noisyFinal = s
		}
	}()

	// The quiet fleet: per-tenant goroutines, sync delta saves, each
	// perturbing only its own small window (T7's replica workload).
	managers := make([]*core.Manager, quiet)
	for j := range managers {
		m, err := svc.OpenJob(fmt.Sprintf("quiet%02d", j), core.Options{
			Strategy:    core.StrategyDelta,
			AnchorEvery: 8,
			ChunkBytes:  t10ChunkKB << 10,
			Workers:     2,
		})
		if err != nil {
			return T10Row{}, err
		}
		managers[j] = m
	}
	stalls := make([][]time.Duration, quiet)
	finals := make([]*core.TrainingState, quiet)
	errs := make([]error, quiet)
	var wg sync.WaitGroup
	for j := 0; j < quiet; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			s := t3State(t10QuietParams)
			for i := 0; i < steps; i++ {
				s = s.Clone()
				s.Step = uint64(i)
				s.Params[(j*t10Window+i%t10Window)%len(s.Params)] += 1e-9
				start := time.Now()
				if _, err := managers[j].Save(s); err != nil {
					errs[j] = err
					return
				}
				if i > 0 { // the priming save populates the store; exclude it
					stalls[j] = append(stalls[j], time.Since(start))
				}
			}
			finals[j] = s
		}(j)
	}
	wg.Wait()
	quietDone.Store(true)
	<-noisyExit
	if noisyErr != nil {
		return T10Row{}, fmt.Errorf("noisy tenant: %w", noisyErr)
	}
	for j, err := range errs {
		if err != nil {
			return T10Row{}, fmt.Errorf("quiet%02d: %w", j, err)
		}
	}

	row := T10Row{Mode: mode, Quiet: quiet, Saves: steps, NoisySaves: len(noisyStalls)}
	var sum time.Duration
	var n int
	for j := range stalls {
		for _, d := range stalls[j] {
			sum += d
			n++
		}
		if p := percentile(stalls[j], 0.99); p > row.QuietP99 {
			row.QuietP99 = p
		}
	}
	if n > 0 {
		row.QuietMean = sum / time.Duration(n)
	}
	row.NoisyP99 = percentile(noisyStalls, 0.99)

	// Close flushes the async tail and the background migrator before the
	// restore checks read the store.
	if err := noisyMgr.Close(); err != nil {
		return T10Row{}, err
	}
	for _, m := range managers {
		if err := m.Close(); err != nil {
			return T10Row{}, err
		}
	}
	if u, ok := svc.QoSUsage()[t10NoisyID]; ok {
		row.Throttled = u.Throttled
		row.ThrottleWait = u.ThrottleWait
	}

	row.Bitwise = true
	check := func(jobID string, want *core.TrainingState) error {
		view, err := svc.JobView(jobID)
		if err != nil {
			return err
		}
		got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{})
		if err != nil {
			return fmt.Errorf("%s restore: %w", jobID, err)
		}
		if !got.Equal(want) {
			row.Bitwise = false
		}
		return nil
	}
	if err := check(t10NoisyID, noisyFinal); err != nil {
		return T10Row{}, err
	}
	for j := 0; j < quiet; j++ {
		if err := check(fmt.Sprintf("quiet%02d", j), finals[j]); err != nil {
			return T10Row{}, err
		}
	}

	occ, err := tb.Occupancy()
	if err != nil {
		return T10Row{}, err
	}
	for i, lv := range occ {
		for _, c := range lv.ByClass {
			if c.Class != storage.ClassDeltaChunk.String() {
				continue
			}
			if i == 0 {
				row.HotDeltaBytes = c.Bytes
			} else {
				row.WarmDelta += c.Bytes
			}
		}
		if i == 0 {
			row.HotBytes = lv.Bytes
		}
	}
	if err := svc.Close(); err != nil {
		return T10Row{}, err
	}
	return row, nil
}

// percentile returns the p-quantile (0 < p ≤ 1) of samples by
// nearest-rank; zero when there are no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// T10Table renders the rows.
func T10Table(rows []T10Row) *Table {
	t := &Table{
		Title:   "Table 10 — Per-tenant QoS under a noisy neighbor (quiet sync tenants + 1 async hog, delta tails placed warm)",
		Columns: []string{"mode", "quiet", "saves", "noisy-saves", "stall-mean", "quiet-p99", "noisy-p99", "throttled", "throttle-wait", "hot-bytes", "hot-delta", "warm-delta", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Mode, r.Quiet, r.Saves, r.NoisySaves,
			r.QuietMean.Round(time.Microsecond), r.QuietP99.Round(time.Microsecond),
			r.NoisyP99.Round(time.Microsecond),
			r.Throttled, r.ThrottleWait.Round(time.Millisecond),
			humanBytes(r.HotBytes), humanBytes(r.HotDeltaBytes), humanBytes(r.WarmDelta),
			r.Bitwise)
	}
	return t
}
