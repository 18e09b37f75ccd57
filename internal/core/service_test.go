package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// serviceJobStates builds n drifting states for one job: all jobs start
// from the same base content (the cross-job dedup opportunity) and each
// job perturbs only its own narrow parameter slice per step.
func serviceJobStates(job, n int) []*TrainingState {
	out := make([]*TrainingState, n)
	s := NewTrainingState()
	s.Params = make([]float64, 2048)
	for i := range s.Params {
		s.Params[i] = float64(i) * 0.137
	}
	s.Optimizer = make([]byte, 16*2048)
	s.RNG = make([]byte, 200)
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "svc", ProblemFP: "svc", OptimizerName: "adam"}
	for i := 0; i < n; i++ {
		s = s.Clone()
		s.Step = uint64(i)
		s.Params[(job*8+i%8)%len(s.Params)] += 1e-9
		out[i] = s
	}
	return out
}

func TestServiceCrossJobDedup(t *testing.T) {
	mem := storage.NewMem()
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	jobOpts := chunkedOpts(Options{Strategy: StrategyFull})

	// Job A writes first; job B then saves near-identical content and
	// should find almost every chunk already present.
	var lastState [2]*TrainingState
	var stats [2]Stats
	for j, id := range []string{"job-a", "job-b"} {
		m, err := svc.OpenJob(id, jobOpts)
		if err != nil {
			t.Fatal(err)
		}
		states := serviceJobStates(0, 6) // same content stream for both jobs
		for _, s := range states {
			if _, err := m.Save(s); err != nil {
				t.Fatal(err)
			}
		}
		lastState[j] = states[len(states)-1]
		stats[j] = m.Stats()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if stats[0].Chunks == 0 {
		t.Fatal("no chunks written — dedup has nothing to show")
	}
	// Job B re-saved the identical stream: every distinct chunk must have
	// been a store-level dedup hit or a clean reuse, so its byte traffic
	// is manifests only — far below job A's.
	if stats[1].BytesWritten*4 > stats[0].BytesWritten {
		t.Errorf("cross-job dedup missing: job A wrote %d B, job B wrote %d B",
			stats[0].BytesWritten, stats[1].BytesWritten)
	}
	// Both jobs restore bitwise through their views.
	for j, id := range []string{"job-a", "job-b"} {
		view, err := svc.JobView(id)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
		if err != nil {
			t.Fatalf("restore %s: %v", id, err)
		}
		if !got.Equal(lastState[j]) {
			t.Errorf("job %s restored wrong state", id)
		}
	}
	ids, err := svc.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "job-a" || ids[1] != "job-b" {
		t.Errorf("Jobs() = %v", ids)
	}
}

func TestServiceJobNamespaceIsolation(t *testing.T) {
	svc, err := NewService(ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	stateByJob := map[string]*TrainingState{}
	for j, id := range []string{"alpha", "beta"} {
		m, err := svc.OpenJob(id, chunkedOpts(Options{Strategy: StrategyDelta, AnchorEvery: 3}))
		if err != nil {
			t.Fatal(err)
		}
		states := serviceJobStates(j, 5)
		for _, s := range states {
			if _, err := m.Save(s); err != nil {
				t.Fatal(err)
			}
		}
		stateByJob[id] = states[len(states)-1]
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"alpha", "beta"} {
		view, err := svc.JobView(id)
		if err != nil {
			t.Fatal(err)
		}
		headers, skipped, err := ListSnapshotsBackend(view)
		if err != nil {
			t.Fatal(err)
		}
		if len(skipped) != 0 {
			t.Errorf("job %s: skipped %v", id, skipped)
		}
		if len(headers) != 5 {
			t.Errorf("job %s: sees %d snapshots, want its own 5", id, len(headers))
		}
		got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(stateByJob[id]) {
			t.Errorf("job %s restored another tenant's state", id)
		}
	}
}

// TestServiceGCKeepsCrossJobReferences deletes one job's manifests
// entirely and collects: every chunk the surviving job references must
// stay, and once the survivor's manifests go too, the store drains.
func TestServiceGCKeepsCrossJobReferences(t *testing.T) {
	mem := storage.NewMem()
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	var last *TrainingState
	for _, id := range []string{"doomed", "survivor"} {
		m, err := svc.OpenJob(id, chunkedOpts(Options{Strategy: StrategyFull}))
		if err != nil {
			t.Fatal(err)
		}
		states := serviceJobStates(0, 4) // identical content → fully shared chunks
		for _, s := range states {
			if _, err := m.Save(s); err != nil {
				t.Fatal(err)
			}
		}
		last = states[len(states)-1]
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Wipe the doomed job's manifests (an operator deleting a tenant).
	keys, err := mem.List(JobPrefix + "/doomed/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no manifests to delete")
	}
	for _, k := range keys {
		if err := mem.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err := svc.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("GC removed %d chunk(s) still referenced by the surviving job", removed)
	}
	view, err := svc.JobView("survivor")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
	if err != nil {
		t.Fatalf("survivor restore after cross-job GC: %v", err)
	}
	if !got.Equal(last) {
		t.Error("survivor state corrupted by GC")
	}
	// Delete the survivor too: now everything is garbage.
	keys, err = mem.List(JobPrefix + "/survivor/")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := mem.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err = svc.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("nothing collected from a fully unreferenced store")
	}
	if addrs, err := svc.ChunkStore().List(); err != nil || len(addrs) != 0 {
		t.Errorf("store not drained: %d chunk(s) left, err=%v", len(addrs), err)
	}
}

// jobGatedBackend parks manifest Puts of one job's namespace until
// released — the cross-job version of the GC/in-flight-save window: job
// A's chunks are durable and shared, its manifest is not yet committed,
// and another tenant triggers a collection.
type jobGatedBackend struct {
	storage.Backend
	gatePrefix string
	arrived    chan string
	release    chan struct{}
}

func (g *jobGatedBackend) Put(key string, data []byte) error {
	if strings.HasPrefix(key, g.gatePrefix) && strings.Contains(key, snapshotKeyPrefix) {
		g.arrived <- key
		<-g.release
	}
	return g.Backend.Put(key, data)
}

// TestServiceCrossJobGCSaveRace is the fault-injection test for the
// cross-job GC/save race: job A's async chunked save is frozen between
// chunk ingest and manifest commit while job B saves garbage-producing
// history and runs the service-wide collection. The shared pin table must
// shield A's uncommitted chunks — including the ones B's own manifests no
// longer reference — and A must restore bitwise after release.
func TestServiceCrossJobGCSaveRace(t *testing.T) {
	mem := storage.NewMem()
	gated := &jobGatedBackend{
		Backend:    mem,
		gatePrefix: JobPrefix + "/frozen/",
		arrived:    make(chan string, 1),
		release:    make(chan struct{}),
	}
	svc, err := NewService(ServiceOptions{Backend: gated})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := svc.OpenJob("frozen", Options{
		Strategy: StrategyFull, ChunkBytes: MinChunkBytes, Workers: 2, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := serviceJobStates(3, 1)
	if _, err := frozen.Save(states[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.arrived: // chunks ingested, manifest Put parked
	case <-time.After(5 * time.Second):
		t.Fatal("async save never reached the manifest commit")
	}

	chunksBefore, err := svc.ChunkStore().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunksBefore) == 0 {
		t.Fatal("no chunks ingested before the manifest commit")
	}

	// Another tenant runs the collection — through its own Manager, which
	// for a service job must be the service-wide path.
	other, err := svc.OpenJob("other", chunkedOpts(Options{Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Save(serviceJobStates(7, 1)[0]); err != nil {
		t.Fatal(err)
	}
	removed, _, err := other.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("cross-job GC deleted %d in-flight chunk(s) of another tenant", removed)
	}
	chunksAfter, err := svc.ChunkStore().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunksAfter) < len(chunksBefore) {
		t.Fatalf("chunk inventory shrank under cross-job GC: %d -> %d", len(chunksBefore), len(chunksAfter))
	}

	close(gated.release)
	if err := frozen.Barrier(); err != nil {
		t.Fatal(err)
	}
	view, err := svc.JobView("frozen")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore after GC-interleaved cross-job save: %v", err)
	}
	if !got.Equal(states[0]) {
		t.Error("state corrupted by cross-job GC racing the save")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Pins must drain with the commit across all tenants.
	if pinned := frozen.pinnedChunks(); len(pinned) != 0 {
		t.Errorf("%d chunk pin(s) leaked past the manifest commit", len(pinned))
	}
}

// TestCollectOrphansToleratesConcurrentManifestDelete pins the race fix:
// a manifest deleted between the keep-set scan's List and its read —
// another tenant's retention GC firing mid-collection — must not abort
// the collection, and surviving manifests' chunks must stay kept.
func TestCollectOrphansToleratesConcurrentManifestDelete(t *testing.T) {
	mem := storage.NewMem()
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.OpenJob("racer", chunkedOpts(Options{Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	states := serviceJobStates(2, 3)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	keys, err := mem.List(JobPrefix + "/racer/")
	if err != nil || len(keys) < 2 {
		t.Fatalf("keys=%v err=%v", keys, err)
	}
	// Re-open the service over a backend that deletes the oldest manifest
	// as soon as the scan lists it: another job's retention racing the
	// fleet-wide keep-set scan between its List and its manifest reads. Only
	// the scan's own List of the job's manifests fires it, not the earlier
	// root scan or job-discovery List("jobs/"), so the scan really does read
	// a key it just listed.
	raceSvc, err := NewService(ServiceOptions{Backend: &hookedBackend{Backend: mem, listed: func(prefix string) {
		if prefix == JobPrefix+"/racer/"+snapshotKeyPrefix {
			mem.Delete(keys[0])
		}
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := raceSvc.CollectOrphans(); err != nil {
		t.Fatalf("collection aborted on a concurrently deleted manifest: %v", err)
	}
	view, err := svc.JobView("racer")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore after racing collection: %v", err)
	}
	if !got.Equal(states[len(states)-1]) {
		t.Error("surviving manifest's state corrupted")
	}
}

// TestServiceConcurrentJobsStress drives several jobs' managers from
// separate goroutines — saves with retention GC (Retain 1 and 2, so both
// the kept and the dropped delta base occur) while service collections run
// back to back until the last saver is done — and checks every tenant
// verifies clean and restores bitwise. Each job crosses three anchors that
// reuse chunks of the anchor before them, which is the reuse the
// collections race. Run with -race to exercise the sharded store, striped
// pin table and shared GC gate under real concurrency.
func TestServiceConcurrentJobsStress(t *testing.T) {
	svc, err := NewService(ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, steps = 6, 10
	managers := make([]*Manager, jobs)
	finals := make([]*TrainingState, jobs)
	anchorClean := make([]int, jobs) // sync jobs only: clean chunks on anchors after the first
	for j := 0; j < jobs; j++ {
		m, err := svc.OpenJob(fmt.Sprintf("job%02d", j), Options{
			Strategy: StrategyDelta, AnchorEvery: 3, Retain: 1 + j/2%2,
			ChunkBytes: MinChunkBytes, Workers: 2, Async: j%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		managers[j] = m
	}
	var savers, collector sync.WaitGroup
	errs := make(chan error, jobs+1)
	for j := 0; j < jobs; j++ {
		savers.Add(1)
		go func(j int) {
			defer savers.Done()
			states := serviceJobStates(j, steps)
			for i, s := range states {
				before := managers[j].Stats().CleanChunks
				if _, err := managers[j].Save(s); err != nil {
					errs <- fmt.Errorf("job %d: %w", j, err)
					return
				}
				if j%2 == 1 && i > 0 && i%3 == 0 {
					anchorClean[j] += managers[j].Stats().CleanChunks - before
				}
			}
			finals[j] = states[len(states)-1]
		}(j)
	}
	saversDone := make(chan struct{})
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			if _, _, err := svc.CollectOrphans(); err != nil {
				errs <- fmt.Errorf("collect: %w", err)
				return
			}
			select {
			case <-saversDone:
				return
			default:
			}
		}
	}()
	savers.Wait()
	close(saversDone)
	collector.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		view, err := svc.JobView(fmt.Sprintf("job%02d", j))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
		if err != nil {
			t.Fatalf("job %d restore: %v", j, err)
		}
		if finals[j] == nil || !got.Equal(finals[j]) {
			t.Errorf("job %d lost its final state under concurrency", j)
		}
		if ok, problems, err := VerifyBackend(view); err != nil || len(problems) != 0 || ok == 0 {
			t.Errorf("job %d: verify ok=%d problems=%v err=%v", j, ok, problems, err)
		}
		if j%2 == 1 && anchorClean[j] == 0 {
			t.Errorf("job %d: no anchor reused a chunk of the anchor before it", j)
		}
	}
}

// TestStandaloneManagerGCSparesTenantChunks opens a plain Manager at the
// root of a store that also carries job namespaces: its orphan
// collection (including the one retention GC triggers) must treat every
// tenant's references as live, not just its own root manifests.
func TestStandaloneManagerGCSparesTenantChunks(t *testing.T) {
	mem := storage.NewMem()
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	jm, err := svc.OpenJob("tenant", chunkedOpts(Options{Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	jobStates := serviceJobStates(1, 3)
	for _, s := range jobStates {
		if _, err := jm.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// A standalone manager on the same root, with retention tight enough
	// that its gc() (and the orphan collection it triggers) runs.
	m, err := NewManager(chunkedOpts(Options{Backend: mem, Strategy: StrategyFull, Retain: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqStates(3) {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if removed, _, err := m.CollectOrphans(); err != nil || removed != 0 {
		t.Fatalf("standalone GC on a multi-tenant root: removed=%d err=%v", removed, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	view, err := svc.JobView("tenant")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
	if err != nil {
		t.Fatalf("tenant restore after standalone GC: %v", err)
	}
	if !got.Equal(jobStates[len(jobStates)-1]) {
		t.Error("tenant state corrupted by a standalone manager's GC")
	}
}

func TestServiceOpenJobValidation(t *testing.T) {
	svc, err := NewService(ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", `a\b`, "..", "."} {
		if _, err := svc.OpenJob(bad, Options{}); err == nil {
			t.Errorf("job ID %q accepted", bad)
		}
	}
	if _, err := svc.OpenJob("j", Options{Backend: storage.NewMem()}); err == nil {
		t.Error("per-job Backend accepted")
	}
	if _, err := svc.OpenJob("j", Options{Dir: t.TempDir()}); err == nil {
		t.Error("per-job Dir accepted")
	}
	if _, err := svc.OpenJob("j", Options{Lifecycle: LifecyclePolicy{KeepHotChains: 1}}); err == nil {
		t.Error("per-job Lifecycle accepted")
	}
	m, err := svc.OpenJob("j", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenJob("j", Options{}); err == nil {
		t.Error("double open of a live job accepted")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenJob("j", Options{}); err != nil {
		t.Errorf("reopen after close refused: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenJob("k", Options{}); err == nil {
		t.Error("OpenJob accepted on a closed service")
	}
}

// TestOpenJobRefusedWhileCloseDrains pins the reopen guard: a job whose
// Manager is mid-Close — async pipeline still committing manifests —
// must not be reopenable, or the successor would scan the namespace for
// its starting sequence number while the predecessor is still writing
// into it. Only a fully drained Close frees the namespace.
func TestOpenJobRefusedWhileCloseDrains(t *testing.T) {
	mem := storage.NewMem()
	gated := &jobGatedBackend{
		Backend:    mem,
		gatePrefix: JobPrefix + "/slow/",
		arrived:    make(chan string, 1),
		release:    make(chan struct{}),
	}
	svc, err := NewService(ServiceOptions{Backend: gated})
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.OpenJob("slow", Options{
		Strategy: StrategyFull, ChunkBytes: MinChunkBytes, Workers: 2, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(serviceJobStates(5, 1)[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.arrived: // manifest Put parked: the pipeline cannot drain
	case <-time.After(5 * time.Second):
		t.Fatal("async save never reached the manifest commit")
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	// Close is blocked draining the sequencer; the namespace is still hot.
	for i := 0; ; i++ {
		if _, err := svc.OpenJob("slow", Options{}); err == nil {
			t.Fatal("job reopened while its old manager was still draining")
		}
		// Close must still be in flight at the time of the refused reopen.
		select {
		case <-closed:
			t.Fatal("Close returned before the gate released")
		default:
		}
		if i == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gated.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenJob("slow", Options{}); err != nil {
		t.Errorf("reopen after drained Close refused: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJobViewRouting pins the view's key routing: manifests under the
// job namespace, chunks at the root, list merging across both, and range
// reads through whichever side owns the key.
func TestJobViewRouting(t *testing.T) {
	mem := storage.NewMem()
	view, err := JobBackend(mem, "vjob")
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Put("ckpt-000000000001-full.qckpt", []byte("manifest")); err != nil {
		t.Fatal(err)
	}
	if err := view.Put(ChunkPrefix+"/ab/"+strings.Repeat("ab", 32), []byte("chunkdata")); err != nil {
		t.Fatal(err)
	}
	// Physical placement.
	if _, err := mem.Get("jobs/vjob/ckpt-000000000001-full.qckpt"); err != nil {
		t.Errorf("manifest not under jobs/vjob/: %v", err)
	}
	if _, err := mem.Get(ChunkPrefix + "/ab/" + strings.Repeat("ab", 32)); err != nil {
		t.Errorf("chunk not at store root: %v", err)
	}
	// Logical view: both visible, with correct prefix slicing.
	all, err := view.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("List(\"\") = %v, want manifest + chunk", all)
	}
	manifests, err := view.List(snapshotKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 1 || !strings.HasPrefix(manifests[0], snapshotKeyPrefix) {
		t.Errorf("List(ckpt-) = %v", manifests)
	}
	chunks, err := view.List(ChunkPrefix + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Errorf("List(chunks/) = %v", chunks)
	}
	if got, err := storage.GetRange(view, "ckpt-000000000001-full.qckpt", 0, 4); err != nil || string(got) != "mani" {
		t.Errorf("GetRange via job side = %q, %v", got, err)
	}
	if got, err := storage.GetRange(view, ChunkPrefix+"/ab/"+strings.Repeat("ab", 32), 5, 4); err != nil || string(got) != "data" {
		t.Errorf("GetRange via chunk side = %q, %v", got, err)
	}
	out, errs := storage.GetBatch(view, []string{
		"ckpt-000000000001-full.qckpt",
		ChunkPrefix + "/ab/" + strings.Repeat("ab", 32),
	})
	if errs[0] != nil || errs[1] != nil || string(out[0]) != "manifest" || string(out[1]) != "chunkdata" {
		t.Errorf("GetBatch = %q, %v", out, errs)
	}
	if err := view.Delete("ckpt-000000000001-full.qckpt"); err != nil {
		t.Fatal(err)
	}
	if keys, _ := mem.List("jobs/vjob/"); len(keys) != 0 {
		t.Errorf("delete left %v", keys)
	}
}
