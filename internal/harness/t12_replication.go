package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/storage"
)

// T12Row is one line of Table 12: a 3-way replicated store (W=2, R=2)
// driven by concurrent writers and readers on one mutable key while a
// fault plan degrades replicas, then by a checkpoint workload restored
// with one replica dead. MinK is the k-atomicity bound the consistency
// verifier observed over the recorded history (1 = atomic); Violations
// counts reads no k-atomic explanation exists for (must be 0). Avail is
// restore availability with each of the three replicas dead in turn
// (the paper's 1-of-3 headline: 100%). WriteAmp is physical replica
// bytes written per logical byte accepted (≈ R for a healthy run).
// GCSafe reports that the orphan sweep reaped nothing referenced by a
// quorum-visible manifest — the split-brain GC invariant.
type T12Row struct {
	Scenario   string // healthy | crash-1 | slow-1 | split-brain-gc
	Writers    int
	Readers    int
	Ops        int // recorded audit operations (puts + gets)
	MinK       int
	Violations int

	AvailPct     float64 // restores that succeeded with 1 of 3 replicas dead
	WriteAmp     float64 // physical bytes written across replicas / logical bytes
	RepairPushed int     // copies anti-entropy pushed to lagging replicas
	GCSafe       bool    // sweep reaped nothing a quorum-visible manifest references
	Bitwise      bool    // every restore, degraded ones included, was bitwise
}

const (
	t12Key          = "objects/t12-mutable"
	t12OpsPerWriter = 16
	t12PayloadBytes = 1024
	t12Params       = 2048
	t12ChunkKB      = 8
	t12SlowDelay    = 200 * time.Microsecond
)

// t12Counter counts the write traffic into the store it wraps: over one
// replica the physical bytes, over the replicated store itself the
// logical bytes the workload hands it before fan-out.
type t12Counter struct {
	storage.Forward
	bytes atomic.Int64
}

func (c *t12Counter) Caps() storage.CapSet { return storage.ForwardCaps(c, c.Backend) }

func (c *t12Counter) Put(key string, data []byte) error {
	return c.PutClass(key, data, storage.ClassDefault)
}

func (c *t12Counter) PutClass(key string, data []byte, class storage.WriteClass) error {
	c.bytes.Add(int64(len(data)))
	return storage.PutClass(c.Backend, key, data, class)
}

func (c *t12Counter) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return c.IngestKeyedClass(key, addr, data, storage.ClassDefault)
}

// IngestKeyedClass counts the bytes the store actually accepted — a dedup
// hit writes nothing anywhere, so it must not count as logical traffic.
func (c *t12Counter) IngestKeyedClass(key, addr string, data []byte, class storage.WriteClass) (int, bool, error) {
	written, ok, err := storage.TryIngestKeyedClass(c.Backend, key, addr, data, class)
	c.bytes.Add(int64(written))
	return written, ok, err
}

// t12Replica injects the fault plan between the replicated store and
// one replica: dead fails every operation, a delay models a slow disk.
// It declares no optional capability (storage.Forward's default), so all
// traffic reaches it through the five methods it gates.
type t12Replica struct {
	storage.Forward

	mu    sync.Mutex
	dead  bool
	delay time.Duration
}

func (r *t12Replica) setDead(v bool) {
	r.mu.Lock()
	r.dead = v
	r.mu.Unlock()
}

func (r *t12Replica) setDelay(d time.Duration) {
	r.mu.Lock()
	r.delay = d
	r.mu.Unlock()
}

func (r *t12Replica) gate() error {
	r.mu.Lock()
	dead, delay := r.dead, r.delay
	r.mu.Unlock()
	if dead {
		return fmt.Errorf("t12: replica dead")
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

func (r *t12Replica) Name() string { return "t12+" + r.Backend.Name() }
func (r *t12Replica) Put(key string, data []byte) error {
	if err := r.gate(); err != nil {
		return err
	}
	return r.Backend.Put(key, data)
}
func (r *t12Replica) Get(key string) ([]byte, error) {
	if err := r.gate(); err != nil {
		return nil, err
	}
	return r.Backend.Get(key)
}
func (r *t12Replica) List(prefix string) ([]string, error) {
	if err := r.gate(); err != nil {
		return nil, err
	}
	return r.Backend.List(prefix)
}
func (r *t12Replica) Delete(key string) error {
	if err := r.gate(); err != nil {
		return err
	}
	return r.Backend.Delete(key)
}
func (r *t12Replica) Stat(key string) (storage.ObjectInfo, error) {
	if err := r.gate(); err != nil {
		return storage.ObjectInfo{}, err
	}
	return r.Backend.Stat(key)
}

// t12Scenario is one fault plan. fault fires once a third of the audit
// ops are in, heal at two thirds; splitBrain additionally drops the
// newest manifest from one replica before the orphan sweep.
type t12Scenario struct {
	name       string
	fault      func(reps *[3]*t12Replica)
	heal       func(reps *[3]*t12Replica)
	splitBrain bool
}

func t12Scenarios() []t12Scenario {
	none := func(*[3]*t12Replica) {}
	return []t12Scenario{
		{name: "healthy", fault: none, heal: none},
		{
			name:  "crash-1",
			fault: func(r *[3]*t12Replica) { r[0].setDead(true) },
			heal:  func(r *[3]*t12Replica) { r[0].setDead(false) },
		},
		{
			name:  "slow-1",
			fault: func(r *[3]*t12Replica) { r[1].setDelay(t12SlowDelay) },
			heal:  func(r *[3]*t12Replica) { r[1].setDelay(0) },
		},
		{name: "split-brain-gc", fault: none, heal: none, splitBrain: true},
	}
}

// RunT12Replication runs every Table 12 scenario with the given
// concurrent audit shape and checkpoint count. Consistency violations,
// lost restores and broken GC invariants surface as errors — a row that
// comes back at all has a verifier-clean history.
func RunT12Replication(writers, readers, steps int) ([]T12Row, error) {
	if writers < 1 || readers < 1 || steps < 2 {
		return nil, fmt.Errorf("harness: T12 needs ≥1 writer, ≥1 reader, ≥2 steps")
	}
	var rows []T12Row
	for _, sc := range t12Scenarios() {
		row, err := t12RunOne(sc, writers, readers, steps)
		if err != nil {
			return nil, fmt.Errorf("harness: T12 %s: %w", sc.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func t12Payload(writer, seq int) []byte {
	p := make([]byte, t12PayloadBytes)
	copy(p, fmt.Sprintf("w%02d-seq%04d", writer, seq))
	for i := range p[16:] {
		p[16+i] = byte(writer*131 + seq*31 + i)
	}
	return p
}

func t12RunOne(sc t12Scenario, writers, readers, steps int) (T12Row, error) {
	var mems [3]*storage.Mem
	var phys [3]*t12Counter
	var reps [3]*t12Replica
	members := make([]storage.Replica, 3)
	for i := range mems {
		mems[i] = storage.NewMem()
		phys[i] = &t12Counter{Forward: storage.Forward{Backend: mems[i]}}
		reps[i] = &t12Replica{Forward: storage.Forward{Backend: phys[i]}}
		members[i] = storage.Replica{Backend: reps[i], Domain: fmt.Sprintf("zone-%d", i)}
	}
	rb, err := storage.NewReplicated(storage.ReplicatedOptions{
		FailureThreshold: 2,
		ProbeInterval:    time.Millisecond,
	}, members...)
	if err != nil {
		return T12Row{}, err
	}
	defer rb.Close()
	logical := &t12Counter{Forward: storage.Forward{Backend: rb}}

	row := T12Row{Scenario: sc.name, Writers: writers, Readers: readers}

	// Phase A — consistency audit: concurrent writers and readers on one
	// key through the history recorder while the fault plan degrades a
	// replica mid-run. The verifier then bounds the observed staleness.
	rec := consistency.NewRecorder(logical, t12Key)
	total := int64(writers * t12OpsPerWriter)
	var done atomic.Int64
	faultSettled := make(chan struct{})
	go func() {
		defer close(faultSettled)
		for done.Load() < total/3 {
			time.Sleep(20 * time.Microsecond)
		}
		sc.fault(&reps)
		for done.Load() < 2*total/3 {
			time.Sleep(20 * time.Microsecond)
		}
		sc.heal(&reps)
	}()
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < t12OpsPerWriter; n++ {
				// A failed quorum write is legal under faults; the
				// recorder keeps it in the history and the verifier
				// treats it charitably.
				_ = rec.Put(t12Key, t12Payload(id, n))
				done.Add(1)
			}
		}(w)
	}
	var rdWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rdWg.Add(1)
		go func() {
			defer rdWg.Done()
			for {
				_, _ = rec.Get(t12Key)
				select {
				case <-writersDone:
					return
				default:
					time.Sleep(10 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	close(writersDone)
	rdWg.Wait()
	<-faultSettled
	sc.heal(&reps) // idempotent: guarantee a healthy store for phase B

	h := rec.History()
	report, err := consistency.Analyze(h)
	if err != nil {
		return T12Row{}, err
	}
	row.Ops = report.Reads + report.Writes
	row.MinK = report.MinK
	row.Violations = len(report.Violations)
	if row.Violations > 0 {
		return T12Row{}, fmt.Errorf("consistency violation: %+v", report.Violations[0])
	}
	if err := consistency.CheckKAtomic(h, 2); err != nil {
		return T12Row{}, fmt.Errorf("audit not 2-atomic: %w", err)
	}

	// Amplification is measured over the checkpoint phase only: the
	// audit's contended single key triggers read-repair pushes on
	// purpose, which would overstate the save path's steady R× cost. A
	// quorum write returns at W acks, so the audit's last top-ups of the
	// third replica may still be in flight: wait them out first, or they
	// land on the checkpoint phase's side of the line.
	rb.Close()
	physAudit := int64(0)
	for i := range phys {
		physAudit += phys[i].bytes.Load()
	}
	logicalAudit := logical.bytes.Load()

	// Phase B — checkpoint workload through a Service on the replicated
	// store: steps saves of an evolving state.
	svc, err := core.NewService(core.ServiceOptions{Backend: logical})
	if err != nil {
		return T12Row{}, err
	}
	defer svc.Close()
	mgr, err := svc.OpenJob("t12", core.Options{
		Strategy:   core.StrategyFull,
		ChunkBytes: t12ChunkKB << 10,
		Workers:    2,
	})
	if err != nil {
		return T12Row{}, err
	}
	var want *core.TrainingState
	for i := 0; i < steps; i++ {
		want = t3State(t12Params)
		want.Step = uint64(i)
		want.Params[i%t12Params] = float64(i) * 1.75
		if _, err := mgr.Save(want); err != nil {
			return T12Row{}, fmt.Errorf("save %d: %w", i, err)
		}
	}
	if err := mgr.Close(); err != nil {
		return T12Row{}, err
	}
	rb.Close() // barrier: straggler replica writes land

	// Phase C — split-brain GC: the newest manifest vanishes from one
	// replica (as after a crash-and-restore), leaving it quorum-visible
	// only. The sweep must keep every chunk it references.
	if sc.splitBrain {
		manifests, err := rb.List(core.JobPrefix + "/")
		if err != nil {
			return T12Row{}, err
		}
		if len(manifests) == 0 {
			return T12Row{}, fmt.Errorf("no manifests after %d saves", steps)
		}
		if err := mems[0].Delete(manifests[len(manifests)-1]); err != nil {
			return T12Row{}, err
		}
	}
	removed, _, err := svc.CollectOrphans()
	if err != nil {
		return T12Row{}, err
	}
	row.GCSafe = removed == 0
	if !row.GCSafe {
		return T12Row{}, fmt.Errorf("orphan sweep reaped %d referenced chunks", removed)
	}

	// Phase D — restore availability: each replica dies in turn; every
	// restore must still succeed, bitwise.
	view, err := svc.JobView("t12")
	if err != nil {
		return T12Row{}, err
	}
	row.Bitwise = true
	okRestores := 0
	for i := range reps {
		reps[i].setDead(true)
		got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{})
		reps[i].setDead(false)
		if err != nil {
			return T12Row{}, fmt.Errorf("restore with replica %d dead: %w", i, err)
		}
		okRestores++
		if !got.Equal(want) {
			row.Bitwise = false
		}
	}
	row.AvailPct = 100 * float64(okRestores) / float64(len(reps))

	// Phase E — anti-entropy converges whatever the fault plan left
	// behind, then one last healthy restore.
	st, err := rb.Repair()
	if err != nil {
		return T12Row{}, err
	}
	if st.Errors != 0 {
		return T12Row{}, fmt.Errorf("repair finished with %d errors", st.Errors)
	}
	row.RepairPushed = st.Pushed
	got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{})
	if err != nil {
		return T12Row{}, err
	}
	if !got.Equal(want) {
		row.Bitwise = false
	}

	var physBytes int64
	for i := range phys {
		physBytes += phys[i].bytes.Load()
	}
	if lb := logical.bytes.Load() - logicalAudit; lb > 0 {
		row.WriteAmp = float64(physBytes-physAudit) / float64(lb)
	}
	return row, nil
}

// T12Table renders the rows.
func T12Table(rows []T12Row) *Table {
	t := &Table{
		Title:   "Table 12 — Replicated store under faults (3 replicas, W=2/R=2): k-atomicity audit, degraded-restore availability, write amplification",
		Columns: []string{"scenario", "writers", "readers", "ops", "minK", "violations", "avail%", "write-amp", "repair-pushed", "gc-safe", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Scenario, r.Writers, r.Readers, r.Ops, r.MinK, r.Violations,
			fmt.Sprintf("%.0f", r.AvailPct), fmt.Sprintf("%.2f", r.WriteAmp),
			r.RepairPushed, r.GCSafe, r.Bitwise)
	}
	return t
}
