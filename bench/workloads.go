package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/storage"
)

// workload is one row of the workload table in README.md. saves and
// restores are per repeat; a run makes as many repeats as fit in
// -seconds and pools their samples.
type workload struct {
	name string
	why  string
	// saves is the number of timed saves per client and repeat. It is one
	// less than a multiple of 16, so with the priming save the newest
	// delta chain is full length when the restores start.
	saves int
	// restores per repeat: single cold restores on the local workloads,
	// rounds of two concurrent restorers on substep_remote; unused on
	// mixed_remote, whose restorer runs for as long as the saver does.
	restores int
	run      func(e *env) error
}

var workloads = []workload{
	{
		name:  "substep_local",
		why:   "0.3% dirty delta saves on a local store: codec, dirty-compare and small commits dominate; restore replays a 16-link chain",
		saves: 383, restores: 25,
		run: func(e *env) error { return runLocal(e, core.StrategyDelta, 8<<10, (*stream).substep) },
	},
	{
		name:  "fullstep_local",
		why:   "100% dirty full saves on a local store: hash, chunk ingest, bulk writes and retention dominate; the incremental path is bypassed",
		saves: 255, restores: 100,
		run: func(e *env) error { return runLocal(e, core.StrategyFull, 64<<10, (*stream).fullstep) },
	},
	{
		name:  "substep_remote",
		why:   "the substep_local core work from 2 tenants over HTTP into a tiered, replicated server; the difference is the wire and wrapper tax",
		saves: 191, restores: 13,
		run: runSubstepRemote,
	},
	{
		name:  "mixed_remote",
		why:   "async saver beside a looping restorer on a server whose origin cache does not fit a chain: reads, invalidation and GC contend",
		saves: 255,
		run:   runMixedRemote,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Manager and restore settings shared by every workload.
const (
	anchorEvery = 16
	saveWorkers = 2
	remoteCache = 64 << 20 // substep_remote: the restore working set fits
	mixedCache  = 1 << 20  // mixed_remote: smaller than one anchor chain
)

var restoreOpts = core.RestoreOptions{Workers: 2, Prefetch: 4}

// env is what one repeat runs in.
type env struct {
	w    workload
	seed int64
	sh   shape
	tr   *tracer // nil: no bench wrapper anywhere in the stack
	dir  string  // this repeat's store directory, created empty
	r    *rep    // what the repeat measured
	// verify runs core.VerifyBackend over the stores before they are
	// removed; the run asks for it on the warm-up repeat only.
	verify bool
}

// rep is everything one repeat measured. Times are wall clock unless
// named CPU; counters are deltas over the timed phase.
type rep struct {
	setupS     float64
	host       hostCal
	stallsMS   []float64 // one per timed Manager.Save, all clients
	restoresMS []float64 // one per restore, open/dial to decoded state

	saves, restores         int // timed operations completed
	saveWallS, restoreWallS float64
	saveCPUS                float64
	payloadBytes            int64 // one encoded state
	savedPayloadBytes       int64 // Σ PayloadBytes over timed saves
	residentBytes           int64 // files under the store dirs after Close

	mgr          core.Stats // Σ over clients, timed saves only
	encodeNS     int64      // Σ SaveResult.Encode
	writeNS      int64      // Σ SaveResult.Write
	chainLen     int64      // Σ LoadReport.ChainLen
	skipped      int64      // Σ len(LoadReport.Skipped)
	saveWire     remote.ClientStats
	restoreWire  remote.ClientStats
	saveAPI      api.Stats // server counters over the save phase
	restoreAPI   api.Stats // server counters over the restore phase
	tiered       storage.TieredStats
	replicasDown int
	mallocs      uint64 // runtime mallocs over the save phase
	heapAlloc    uint64 // runtime TotalAlloc over the save phase
	gcPauseNS    uint64
	codec        codecCal

	// Traced repeats only: the phases on the tracer clock and what the
	// spans inside them add up to.
	saveWin, restWin window
	saveAgg, restAgg phaseAgg
	spans            int

	attempted int
	failures  []string
}

func (r *rep) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// noteRestore counts one attempted restore and, if it came back right,
// its wall time and what the load report says about it.
func (r *rep) noteRestore(what string, ms float64, report core.LoadReport, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	r.restores++
	r.restoresMS = append(r.restoresMS, ms)
	r.chainLen += int64(report.ChainLen)
	r.skipped += int64(len(report.Skipped))
}

// meter brackets a phase: wall, process CPU and allocator counters.
type meter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.t0 = time.Now()
	return m
}

// stopSave closes the save phase. genS is the time the driver spent
// mutating states between saves: it is single-threaded CPU of the
// bench's own, so it comes off both the wall and the CPU of the phase.
func (m *meter) stopSave(r *rep, genS float64) {
	r.saveWallS = time.Since(m.t0).Seconds() - genS
	r.saveCPUS = cpuSeconds() - m.cpu - genS
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.ms.Mallocs
	r.heapAlloc = ms.TotalAlloc - m.ms.TotalAlloc
	r.gcPauseNS = ms.PauseTotalNs - m.ms.PauseTotalNs
}

// trainer drives one manager through timed saves of its stream.
type trainer struct {
	e    *env
	g    *stream
	mgr  *core.Manager
	op   atomic.Uint64 // current op id, read by this client's wrappers
	base core.Stats    // manager stats after the priming save

	stalls   []float64
	encodeNS int64
	writeNS  int64
	payload  int64
	genS     float64
	failed   []string
}

func (t *trainer) beginOp(kind uint64) uint64 {
	if t.e.tr == nil {
		return 0
	}
	id := t.e.tr.mintOp(kind)
	t.op.Store(id)
	return id
}

// save runs one Manager.Save and, in a traced repeat, records the root
// span around it. It returns the stall.
func (t *trainer) save() (time.Duration, core.SaveResult, error) {
	id := t.beginOp(kindSave)
	t0 := time.Now()
	res, err := t.mgr.Save(t.g.state)
	d := time.Since(t0)
	if tr := t.e.tr; tr != nil {
		tr.recordRoot(layerCoreSave, "Save", id, t0, d, int64(res.PayloadBytes), err != nil)
	}
	return d, res, err
}

// prime makes the untimed first save (the first anchor) and advances the
// stream, leaving the manager's counters as the baseline for the timed
// saves. Async managers are drained so a restorer finds the snapshot.
func (t *trainer) prime(step func(*stream)) error {
	if _, _, err := t.save(); err != nil {
		return fmt.Errorf("priming save: %w", err)
	}
	if err := t.mgr.Barrier(); err != nil {
		return fmt.Errorf("priming save: %w", err)
	}
	t.base = t.mgr.Stats()
	step(t.g)
	return nil
}

// timedSaves makes n saves, mutating the stream between them but not
// after the last, so g.state stays equal to what the newest snapshot
// holds. Then it closes the manager: the phase ends when the data is
// committed, not when the last Save returns.
func (t *trainer) timedSaves(n int, step func(*stream)) {
	for i := 0; i < n; i++ {
		d, res, err := t.save()
		if err != nil {
			t.failed = append(t.failed, fmt.Sprintf("save %d: %v", i, err))
			continue
		}
		t.stalls = append(t.stalls, float64(d)/1e6)
		t.encodeNS += int64(res.Encode)
		t.writeNS += int64(res.Write)
		t.payload += int64(res.PayloadBytes)
		if i+1 < n {
			g0 := time.Now()
			step(t.g)
			t.genS += time.Since(g0).Seconds()
		}
	}
	if err := t.mgr.Close(); err != nil {
		t.failed = append(t.failed, fmt.Sprintf("close: %v", err))
	}
}

// collect folds the trainer's samples and counter deltas into the rep.
func (t *trainer) collect(n int) {
	r := t.e.r
	r.attempted += n
	r.saves += len(t.stalls)
	r.stallsMS = append(r.stallsMS, t.stalls...)
	r.encodeNS += t.encodeNS
	r.writeNS += t.writeNS
	r.savedPayloadBytes += t.payload
	r.failures = append(r.failures, t.failed...)
	st := t.mgr.Stats()
	r.mgr.Snapshots += st.Snapshots - t.base.Snapshots
	r.mgr.FullCount += st.FullCount - t.base.FullCount
	r.mgr.DeltaCount += st.DeltaCount - t.base.DeltaCount
	r.mgr.BytesWritten += st.BytesWritten - t.base.BytesWritten
	r.mgr.Chunks += st.Chunks - t.base.Chunks
	r.mgr.DedupHits += st.DedupHits - t.base.DedupHits
	r.mgr.CleanChunks += st.CleanChunks - t.base.CleanChunks
	r.mgr.RawChunks += st.RawChunks - t.base.RawChunks
	r.mgr.ChunkBytes += st.ChunkBytes - t.base.ChunkBytes
}

// managerOptions is what every workload's manager shares; the caller
// adds the backend and, where the workload has them, Retain and Async.
func managerOptions(strategy core.Strategy, chunk int) core.Options {
	return core.Options{Strategy: strategy, AnchorEvery: anchorEvery, ChunkBytes: chunk, Workers: saveWorkers}
}

// restoreOnce times one cold restore through open (which builds the
// backend: a fresh Local, or a fresh dial) and checks the result with
// check, outside the timed part. ref is the op-id cell the backend's
// wrappers read.
func restoreOnce(e *env, ref *atomic.Uint64, open func() (storage.Backend, func(), error), check func(*core.TrainingState) error) (ms float64, report core.LoadReport, err error) {
	var id uint64
	if e.tr != nil {
		id = e.tr.mintOp(kindRestore)
		ref.Store(id)
	}
	t0 := time.Now()
	b, closeFn, err := open()
	if err != nil {
		return 0, report, err
	}
	defer closeFn()
	got, report, err := core.LoadLatestBackendOptions(b, nil, restoreOpts)
	d := time.Since(t0)
	if tr := e.tr; tr != nil {
		tr.recordRoot(layerCoreRestore, "LoadLatest", id, t0, d, e.r.payloadBytes, err != nil)
	}
	if err != nil {
		return 0, report, err
	}
	return float64(d) / 1e6, report, check(got)
}

func bitwise(want *core.TrainingState) func(*core.TrainingState) error {
	return func(got *core.TrainingState) error {
		if !got.Equal(want) {
			return fmt.Errorf("restored step %d is not bitwise equal to the saved step %d", got.Step, want.Step)
		}
		return nil
	}
}

// verifyStore counts every snapshot VerifyBackend looked at as an
// attempted operation and every problem as a failed one.
func verifyStore(r *rep, b storage.Backend, what string) {
	ok, problems, err := core.VerifyBackend(b)
	r.attempted += ok + len(problems)
	if err != nil {
		r.attempted++
		r.fail("verify %s: %v", what, err)
	}
	for _, p := range problems {
		r.fail("verify %s: %s", what, p)
	}
}

// setup runs the part of set-up every workload shares: the host
// calibration and the encoded size of one state.
func (e *env) setup(g *stream) error {
	var err error
	if e.r.host, err = calibrate(e.dir); err != nil {
		return fmt.Errorf("host calibration: %w", err)
	}
	payload, err := core.EncodePayload(g.state)
	if err != nil {
		return err
	}
	e.r.payloadBytes = int64(len(payload))
	return nil
}

func (e *env) phase(t0 time.Time) window {
	if e.tr == nil {
		return window{}
	}
	return window{int64(t0.Sub(e.tr.epoch)), e.tr.now()}
}

// runLocal is substep_local and fullstep_local: one trainer, sync saves
// with Retain 2 onto storage.NewLocal, then cold restores, each through
// a fresh Local handle.
func runLocal(e *env, strategy core.Strategy, chunk int, step func(*stream)) error {
	r := e.r
	setup0 := time.Now()
	g := newStream(e.seed, e.sh, 0, 1)
	if err := e.setup(g); err != nil {
		return err
	}
	t := &trainer{e: e, g: g}
	open := func() (storage.Backend, func(), error) {
		l, err := storage.NewLocal(e.dir + "/store")
		if err != nil || e.tr == nil {
			return l, func() {}, err
		}
		return traceBackend(l, e.tr, layerLocal, &t.op), func() {}, nil
	}
	b, _, err := open()
	if err != nil {
		return err
	}
	opt := managerOptions(strategy, chunk)
	opt.Backend, opt.Retain = b, 2
	if t.mgr, err = core.NewManager(opt); err != nil {
		return err
	}
	if err := t.prime(step); err != nil {
		return err
	}
	r.setupS = time.Since(setup0).Seconds()

	m := startMeter()
	t.timedSaves(e.w.saves, step)
	m.stopSave(r, t.genS)
	r.saveWin = e.phase(m.t0)
	t.collect(e.w.saves)
	if e.tr != nil {
		r.codec = calibrateCodec(g, step)
	}

	rest0 := time.Now()
	for j := 0; j < e.w.restores; j++ {
		ms, report, err := restoreOnce(e, &t.op, open, bitwise(g.state))
		r.noteRestore(fmt.Sprintf("restore %d", j), ms, report, err)
	}
	r.restoreWallS = time.Since(rest0).Seconds()
	r.restWin = e.phase(rest0)

	if r.residentBytes, err = dirBytes(e.dir + "/store"); err != nil {
		return err
	}
	if e.verify {
		l, err := storage.NewLocal(e.dir + "/store")
		if err != nil {
			return err
		}
		verifyStore(r, l, "store")
	}
	return nil
}

// tenant is one remote trainer: its client and its manager.
type tenant struct {
	trainer
	cl *client
}

// openTenant dials job's client and opens its manager with opt on it.
func openTenant(e *env, url, job string, lane, lanes int, opt core.Options) (*tenant, error) {
	tn := &tenant{trainer: trainer{e: e, g: newStream(e.seed, e.sh, lane, lanes)}}
	var err error
	if tn.cl, err = dial(url, job, job, e.tr, &tn.op); err != nil {
		return nil, err
	}
	opt.Backend = tn.cl.view
	if tn.mgr, err = core.NewManager(opt); err != nil {
		tn.cl.c.Close()
		return nil, err
	}
	return tn, nil
}

// dialRestore is restoreOnce's open for a cold-dial restore of job. The
// restorer's wire counters are added to wire when its client closes.
func dialRestore(e *env, url, tenantID, job string, ref *atomic.Uint64, mu *sync.Mutex, wire *remote.ClientStats) func() (storage.Backend, func(), error) {
	return func() (storage.Backend, func(), error) {
		cl, err := dial(url, tenantID, job, e.tr, ref)
		if err != nil {
			return nil, nil, err
		}
		return cl.view, func() {
			st := cl.c.ClientStats()
			cl.c.Close()
			mu.Lock()
			addWire(wire, st)
			mu.Unlock()
		}, nil
	}
}

func addWire(dst *remote.ClientStats, s remote.ClientStats) {
	dst.Requests += s.Requests
	dst.Retries += s.Retries
	dst.BytesSent += s.BytesSent
	dst.BytesReceived += s.BytesReceived
}

func subWire(a, b remote.ClientStats) remote.ClientStats {
	return remote.ClientStats{
		Requests: a.Requests - b.Requests, Retries: a.Retries - b.Retries,
		BytesSent: a.BytesSent - b.BytesSent, BytesReceived: a.BytesReceived - b.BytesReceived,
	}
}

func subAPI(a, b api.Stats) api.Stats {
	a.HasQueries -= b.HasQueries
	a.HasHits -= b.HasHits
	a.ChunksIngested -= b.ChunksIngested
	a.ChunkDedupHits -= b.ChunkDedupHits
	a.ChunkBytesOffered -= b.ChunkBytesOffered
	a.ChunkBytesWritten -= b.ChunkBytesWritten
	a.ManifestsCommitted -= b.ManifestsCommitted
	a.ManifestBytes -= b.ManifestBytes
	a.BytesServed -= b.BytesServed
	a.OriginHits -= b.OriginHits
	a.OriginMisses -= b.OriginMisses
	a.OriginCoalesced -= b.OriginCoalesced
	return a
}

func (r *rep) noteStack(s *stack) {
	ts := s.tiered.Stats()
	if r.tiered.Hits == nil {
		r.tiered.Hits = make([]int64, len(ts.Hits))
	}
	for i, h := range ts.Hits {
		r.tiered.Hits[i] += h
	}
	r.tiered.Misses += ts.Misses
	for _, h := range s.rep.Health() {
		if !h.Up {
			r.replicasDown++
		}
	}
}

// verifyServerStore verifies every job through the tiers directly, the
// way an operator's offline `qckpt verify` would, not over the wire.
func verifyServerStore(r *rep, root string, jobs ...string) error {
	tiered, rep, err := tiers(root, nil)
	if err != nil {
		return err
	}
	defer rep.Close()
	for _, job := range jobs {
		view, err := core.JobBackend(tiered, job)
		if err != nil {
			return err
		}
		verifyStore(r, view, job)
	}
	return nil
}

// runSubstepRemote: two tenants save the substep stream concurrently
// into one in-process server, starting from the same base state with
// disjoint mutation windows; then the whole server stack is stopped and
// reopened over the same directories (cold origin cache) and rounds of
// two concurrent cold-dial restorers pull job0.
func runSubstepRemote(e *env) error {
	const lanes = 2
	r := e.r
	setup0 := time.Now()
	root := e.dir + "/server"
	s, err := openStack(root, remoteCache, e.tr)
	if err != nil {
		return err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	tenants := make([]*tenant, lanes)
	for i := range tenants {
		tn, err := openTenant(e, s.url, fmt.Sprintf("job%d", i), i, lanes, managerOptions(core.StrategyDelta, 8<<10))
		if err != nil {
			return err
		}
		defer tn.cl.c.Close()
		tenants[i] = tn
	}
	if err := e.setup(tenants[0].g); err != nil {
		return err
	}
	// Primed one after the other: tenant 1's first anchor is the same
	// bytes as tenant 0's and resolves through the has-handshake.
	for _, tn := range tenants {
		if err := tn.prime((*stream).substep); err != nil {
			return err
		}
	}
	wire0 := make([]remote.ClientStats, lanes)
	for i, tn := range tenants {
		wire0[i] = tn.cl.c.ClientStats()
	}
	api0 := s.local.Stats()
	r.setupS = time.Since(setup0).Seconds()

	m := startMeter()
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn.timedSaves(e.w.saves, (*stream).substep)
		}()
	}
	wg.Wait()
	var genS float64
	for _, tn := range tenants {
		genS += tn.genS
	}
	m.stopSave(r, genS)
	r.saveWin = e.phase(m.t0)
	for i, tn := range tenants {
		tn.collect(e.w.saves)
		addWire(&r.saveWire, subWire(tn.cl.c.ClientStats(), wire0[i]))
		tn.cl.c.Close()
	}
	r.saveAPI = subAPI(s.local.Stats(), api0)
	if e.tr != nil {
		r.codec = calibrateCodec(tenants[0].g, (*stream).substep)
	}
	r.noteStack(s)
	err = s.close()
	s = nil
	if err != nil {
		return fmt.Errorf("close server: %w", err)
	}

	if s, err = openStack(root, remoteCache, e.tr); err != nil {
		return err
	}
	want := bitwise(tenants[0].g.state)
	var mu sync.Mutex
	rest0 := time.Now()
	for round := 0; round < e.w.restores; round++ {
		for k := 0; k < lanes; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ref atomic.Uint64
				open := dialRestore(e, s.url, fmt.Sprintf("restorer%d", k), "job0", &ref, &mu, &r.restoreWire)
				ms, report, err := restoreOnce(e, &ref, open, want)
				mu.Lock()
				r.noteRestore(fmt.Sprintf("restore round %d/%d", round, k), ms, report, err)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	r.restoreWallS = time.Since(rest0).Seconds()
	r.restWin = e.phase(rest0)
	r.restoreAPI = s.local.Stats()
	r.noteStack(s)
	err = s.close()
	s = nil
	if err != nil {
		return fmt.Errorf("close server: %w", err)
	}

	if r.residentBytes, err = dirBytes(root); err != nil {
		return err
	}
	if e.verify {
		return verifyServerStore(r, root, "job0", "job1")
	}
	return nil
}

// runMixedRemote: one async saver with Retain 4 and, beside it, one
// restorer that cold-dials and restores the saver's job in a loop until
// the saver has closed. The origin cache is smaller than one anchor
// chain, so restores miss through to the tiers while manifest commits
// invalidate what is cached and retention deletes race the reads.
// Retain 4 leaves 64 saves of headroom, so by design no restore loses
// its chain to GC.
func runMixedRemote(e *env) error {
	r := e.r
	setup0 := time.Now()
	root := e.dir + "/server"
	s, err := openStack(root, mixedCache, e.tr)
	if err != nil {
		return err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	opt := managerOptions(core.StrategyDelta, 8<<10)
	opt.Async, opt.Retain = true, 4
	tn, err := openTenant(e, s.url, "job0", 0, 1, opt)
	if err != nil {
		return err
	}
	defer tn.cl.c.Close()
	if err := e.setup(tn.g); err != nil {
		return err
	}
	if err := tn.prime((*stream).substep); err != nil {
		return err
	}
	wire0 := tn.cl.c.ClientStats()
	api0 := s.local.Stats()
	r.setupS = time.Since(setup0).Seconds()

	// seen is what the restorer got back: the step and the SHA-256 of the
	// restored state's payload. Which step a restore lands on depends on
	// the race, so the comparison value is worked out after the phase.
	type sighting struct {
		step uint64
		sum  [sha256.Size]byte
	}
	var seen []sighting
	var saverDone atomic.Bool
	var mu sync.Mutex
	restored := make(chan struct{})
	go func() {
		defer close(restored)
		var ref atomic.Uint64
		open := dialRestore(e, s.url, "restorer", "job0", &ref, &mu, &r.restoreWire)
		for j := 0; !saverDone.Load() || j == 0; j++ {
			var got sighting
			ms, report, err := restoreOnce(e, &ref, open, func(st *core.TrainingState) error {
				payload, err := core.EncodePayload(st)
				got = sighting{st.Step, sha256.Sum256(payload)}
				return err
			})
			r.noteRestore(fmt.Sprintf("restore %d", j), ms, report, err)
			if err == nil {
				seen = append(seen, got)
			}
		}
	}()

	m := startMeter()
	tn.timedSaves(e.w.saves, (*stream).substep)
	saverDone.Store(true)
	m.stopSave(r, tn.genS)
	<-restored
	r.restoreWallS = time.Since(m.t0).Seconds()
	r.saveWin = e.phase(m.t0)
	r.restWin = r.saveWin
	tn.collect(e.w.saves)
	r.saveWire = subWire(tn.cl.c.ClientStats(), wire0)
	tn.cl.c.Close()
	r.saveAPI = subAPI(s.local.Stats(), api0)
	r.restoreAPI = r.saveAPI
	if e.tr != nil {
		r.codec = calibrateCodec(tn.g, (*stream).substep)
	}
	r.noteStack(s)
	err = s.close()
	s = nil
	if err != nil {
		return fmt.Errorf("close server: %w", err)
	}

	// Replay the seeded stream to every step a restore landed on. The
	// trainer's loop stays free of bench work that way; hashing 2 MiB per
	// save inside it would be a third of the stall.
	want := make(map[uint64]bool, len(seen))
	for _, sg := range seen {
		want[sg.step] = true
	}
	sums := make(map[uint64][sha256.Size]byte, len(want))
	replay := newStream(e.seed, e.sh, 0, 1)
	for step := 0; step <= e.w.saves; step++ {
		if want[replay.state.Step] {
			payload, err := core.EncodePayload(replay.state)
			if err != nil {
				return err
			}
			sums[replay.state.Step] = sha256.Sum256(payload)
		}
		replay.substep()
	}
	for _, sg := range seen {
		if sum, ok := sums[sg.step]; !ok || sum != sg.sum {
			r.fail("restored step %d does not hash to the payload saved for that step", sg.step)
		}
	}

	if r.residentBytes, err = dirBytes(root); err != nil {
		return err
	}
	if e.verify {
		return verifyServerStore(r, root, "job0")
	}
	return nil
}

// runRepeat runs one repeat of w in a fresh directory under root and
// removes the directory afterwards.
func runRepeat(w workload, seed int64, sh shape, tr *tracer, root string, verify bool) (*rep, error) {
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, sh: sh, tr: tr, dir: dir, r: &rep{}, verify: verify}
	err = w.run(e)
	return e.r, errors.Join(err, os.RemoveAll(dir))
}
