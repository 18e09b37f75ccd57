package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// The reference index (pins.go) must always say what a fresh scan of the
// store says. checkRefIndex is that oracle, run after every step of every
// script below; the scripts are the sequences that have broken a scanner
// before (catalog_test.go) plus the ones only an in-memory index can get
// wrong: a commit or a delete that bypasses it, a pinner that gives an
// address up without anyone looking at it again.

// checkRefIndex compares sc's index with a fresh scan of its root and holds
// the chunk inventory to it: every referenced chunk is there, and every
// chunk that is there is referenced, pinned, or in debris — what a previous
// process left, which only an explicit collection may touch. Addresses
// still pending (a failed save's, before the next pass) are excused unless
// settled says a pass has just run.
func checkRefIndex(t testing.TB, sc *sharedChunks, debris map[string]bool, settled bool) {
	t.Helper()
	fresh, err := allManifestReferences(sc.root)
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := keepSet(fresh, nil)
	sc.ixMu.Lock()
	defer sc.ixMu.Unlock()
	if sc.built {
		for key, addrs := range fresh {
			if !reflect.DeepEqual(sc.manifests[key], addrs) {
				t.Errorf("index lists %d addresses for %s, the store %d", len(sc.manifests[key]), key, len(addrs))
			}
		}
		for key := range sc.manifests {
			if _, ok := fresh[key]; !ok {
				t.Errorf("index still holds %s, which the store does not", key)
			}
		}
		count := make(map[string]int)
		for _, addrs := range fresh {
			for _, a := range addrs {
				count[a]++
			}
		}
		if !reflect.DeepEqual(sc.count, count) {
			t.Errorf("index counts %d addresses, a fresh scan %d (or their counts differ)", len(sc.count), len(count))
		}
	}
	inventory, err := sc.store.List()
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[string]bool, len(inventory))
	for _, a := range inventory {
		present[a] = true
		_, pending := sc.pending[a]
		if !keep[a] && !debris[a] && !sc.pinnedAnywhere(a) && (settled || !pending) {
			t.Errorf("chunk %.12s… is unreferenced and unpinned, and no pass will look at it", a)
		}
	}
	for a := range keep {
		if !present[a] {
			t.Errorf("referenced chunk %.12s… is gone", a)
		}
	}
}

// orphansOf is the debris of a store: the chunks nothing references.
func orphansOf(t testing.TB, b storage.Backend) map[string]bool {
	t.Helper()
	keep, err := allChunkReferences(b)
	if err != nil {
		t.Fatal(err)
	}
	debris := make(map[string]bool)
	addrs, err := storage.NewChunkStore(storage.WithPrefix(b, ChunkPrefix)).List()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !keep[a] {
			debris[a] = true
		}
	}
	return debris
}

// faultBackend fails chosen writes and counts the deletes that reach it.
// Embedding the interface hides the base's optional capabilities, so every
// operation arrives through the required methods.
type faultBackend struct {
	storage.Backend
	mu         sync.Mutex
	failPut    string // a Put of this key fails
	failDelete int    // the n-th Delete from now fails (1-based; 0 = none)
	deletes    int
}

func (f *faultBackend) Put(key string, data []byte) error {
	f.mu.Lock()
	fail := key == f.failPut
	f.mu.Unlock()
	if fail {
		return errInjected
	}
	return f.Backend.Put(key, data)
}

func (f *faultBackend) Delete(key string) error {
	f.mu.Lock()
	f.deletes++
	fail := f.failDelete > 0 && f.deletes == f.failDelete
	f.mu.Unlock()
	if fail {
		return errInjected
	}
	return f.Backend.Delete(key)
}

func (f *faultBackend) arm(put string, del int) {
	f.mu.Lock()
	f.failPut, f.failDelete, f.deletes = put, del, 0
	f.mu.Unlock()
}

func mustSave(t testing.TB, m *Manager, s *TrainingState) SaveResult {
	t.Helper()
	res, err := m.Save(s)
	if err == nil {
		err = m.Barrier()
	}
	if err != nil {
		t.Fatalf("save step %d: %v", s.Step, err)
	}
	return res
}

func mustRestoreLatest(t testing.TB, b storage.Backend, want *TrainingState) {
	t.Helper()
	got, report, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
	if err != nil || !got.Equal(want) {
		t.Fatalf("restore: seq %d, err %v, skipped %v; want step %d bitwise", report.Seq, err, report.Skipped, want.Step)
	}
}

// refIndexScripts is TestScannersAgree's "reference index" part. awkward
// is that test's store: torn stub, missing delta, foreign name, CHUNKS1
// manifest, and the orphans they leave.
func refIndexScripts(t *testing.T, awkward storage.Backend, states []*TrainingState) {
	t.Run("successor on the awkward store", func(t *testing.T) {
		store := copyBackend(t, awkward)
		debris := orphansOf(t, store)
		if len(debris) == 0 {
			t.Fatal("the awkward store has no orphans: the script does not test what it says")
		}
		m, err := NewManager(Options{Backend: store, Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: MinChunkBytes, Retain: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for _, s := range serviceJobStates(3, 10) { // not the predecessor's content
			mustSave(t, m, s)
			checkRefIndex(t, m.shared, debris, true)
			keep, _ := allChunkReferences(store)
			for a := range debris {
				if keep[a] {
					delete(debris, a) // adopted by a dedup hit: this process's now
				}
			}
		}
		if !m.shared.built || len(debris) == 0 {
			t.Fatalf("ten saves at Retain 2: index built %v, %d orphans never adopted; want both", m.shared.built, len(debris))
		}
		// Retention never touched the predecessor's debris; one explicit
		// collection takes exactly that.
		for a := range debris {
			if !m.chunks.Has(a) {
				t.Errorf("a retention pass deleted %.12s…, which this process never knew", a)
			}
		}
		if removed, _, err := m.CollectOrphans(); err != nil || removed != len(debris) {
			t.Errorf("explicit collection removed %d (err %v), want the %d orphans the store came with", removed, err, len(debris))
		}
		checkRefIndex(t, m.shared, nil, true)
	})

	for _, chunker := range []Chunker{ChunkerFixed, ChunkerCDC} {
		opts := Options{ChunkBytes: MinChunkBytes, Chunker: chunker, Workers: 2}
		t.Run("failed anchor commit/"+chunker.String(), func(t *testing.T) {
			fb := &faultBackend{Backend: storage.NewMem()}
			o := opts
			o.Backend, o.Strategy, o.AnchorEvery, o.Retain = fb, StrategyDelta, 2, 1
			m, err := NewManager(o)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			mustSave(t, m, states[0])
			mustSave(t, m, states[1])
			before := len(chunkAddrs(t, fb))
			fb.arm(snapshotName(2, KindFull), 0)
			if _, err := m.Save(states[2]); err == nil {
				t.Fatal("the injected manifest failure did not fail the save")
			}
			fb.arm("", 0)
			if len(chunkAddrs(t, fb)) == before {
				t.Fatal("the failed anchor ingested nothing: the script does not test what it says")
			}
			checkRefIndex(t, m.shared, nil, false)
			// The next anchor's pass retires chain 0 and with it what the
			// failed save left.
			for _, s := range states[3:] {
				mustSave(t, m, s)
			}
			checkRefIndex(t, m.shared, nil, true)
			mustRestoreLatest(t, fb, states[len(states)-1])
		})
		t.Run("Retain 1 base drop/"+chunker.String(), func(t *testing.T) {
			mem := storage.NewMem()
			o := opts
			o.Backend, o.Strategy, o.AnchorEvery, o.Retain = mem, StrategyDelta, 3, 1
			m, err := NewManager(o)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for _, s := range bigSeqStates(11) {
				mustSave(t, m, s)
				checkRefIndex(t, m.shared, nil, true)
				mustRestoreLatest(t, mem, s)
			}
		})
		t.Run("anchor chunk reuse across retention/"+chunker.String(), func(t *testing.T) {
			mem := storage.NewMem()
			o := opts
			o.Backend, o.Strategy, o.Retain = mem, StrategyFull, 1
			m, err := NewManager(o)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for i, s := range bigSeqStates(6) {
				mustSave(t, m, s)
				checkRefIndex(t, m.shared, nil, true)
				mustRestoreLatest(t, mem, s)
				if st := m.Stats(); i > 0 && st.CleanChunks+st.DedupHits == 0 {
					t.Fatal("no anchor reused a chunk of its predecessor: the script does not test what it says")
				}
			}
		})
	}

	t.Run("service", func(t *testing.T) {
		mem := storage.NewMem()
		svc, err := NewService(ServiceOptions{Backend: mem})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		leases := &mapPinSource{addrs: map[string]bool{}}
		svc.RegisterPinSource(leases)
		jobOpts := chunkedOpts(Options{Strategy: StrategyFull, Retain: 1})
		a, err := svc.OpenJob("a", jobOpts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := svc.OpenJob("b", jobOpts)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := serviceJobStates(1, 4), serviceJobStates(2, 4)

		// Two jobs sharing chunks: either's retention keeps what the other
		// still names.
		for i := 0; i < 3; i++ {
			mustSave(t, a, sa[i])
			checkRefIndex(t, svc.shared, nil, true)
			mustSave(t, b, sb[i])
			checkRefIndex(t, svc.shared, nil, true)
		}
		va, _ := svc.JobView("a")
		vb, _ := svc.JobView("b")
		mustRestoreLatest(t, va, sa[2])
		mustRestoreLatest(t, vb, sb[2])

		// A remote client's commit of a manifest naming a's chunks, then a's
		// retention, then the client's delete: the chunks only that manifest
		// still names live exactly as long as it does.
		name := snapshotName(2, KindFull)
		manifest, err := mem.Get("jobs/a/" + name)
		if err != nil {
			t.Fatal(err)
		}
		const remoteKey = "jobs/r/ckpt-000000000000-full.qckpt"
		if err := svc.CommitObject(remoteKey, manifest, storage.ClassManifest); err != nil {
			t.Fatal(err)
		}
		checkRefIndex(t, svc.shared, nil, true)
		mustSave(t, a, sa[3]) // retires a's seq 2
		checkRefIndex(t, svc.shared, nil, true)
		vr, _ := svc.JobView("r")
		mustRestoreLatest(t, vr, sa[2])
		before := len(chunkAddrs(t, mem))
		swept, err := svc.DeleteObject(remoteKey)
		if err != nil || swept == 0 || len(chunkAddrs(t, mem)) != before-swept {
			t.Fatalf("deleting the remote manifest swept %d chunks (err %v), inventory %d → %d", swept, err, before, len(chunkAddrs(t, mem)))
		}
		checkRefIndex(t, svc.shared, nil, true)
		// A re-commit under one key replaces what the key referenced.
		other, _ := mem.Get("jobs/b/" + name)
		for _, data := range [][]byte{manifest, other, other} {
			if err := svc.CommitObject(remoteKey, data, storage.ClassManifest); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.DeleteObject(remoteKey); err != nil {
			t.Fatal(err)
		}
		checkRefIndex(t, svc.shared, nil, true)
		// Deleting what is not there is the backend's error and moves nothing.
		if _, err := svc.DeleteObject(remoteKey); err == nil {
			t.Error("deleting a missing manifest reported success")
		}
		if err := svc.CommitObject("jobs/r/notes.txt", []byte("not a snapshot"), storage.ClassDefault); err != nil {
			t.Fatal(err)
		}
		if swept, err := svc.DeleteObject("jobs/r/notes.txt"); err != nil || swept != 0 {
			t.Errorf("deleting a plain object: swept %d, err %v", swept, err)
		}
		checkRefIndex(t, svc.shared, nil, true)

		// An upload whose lease expires uncommitted: shielded while leased,
		// a candidate of the first pass after the lease lapses.
		uploaded, err := svc.ChunkStore().Put([]byte("uploaded, leased, never committed"))
		if err != nil {
			t.Fatal(err)
		}
		leases.mu.Lock()
		leases.addrs[uploaded] = true
		leases.mu.Unlock()
		mustSave(t, b, sb[3])
		if !svc.ChunkStore().Has(uploaded) {
			t.Fatal("a retention pass swept a leased upload")
		}
		checkRefIndex(t, svc.shared, nil, true)
		leases.release(uploaded)
		mustSave(t, a, serviceJobStates(1, 5)[4])
		if svc.ChunkStore().Has(uploaded) {
			t.Error("the upload outlived its lease and a retention pass")
		}
		checkRefIndex(t, svc.shared, nil, true)
		if removed, _, err := svc.CollectOrphans(); err != nil || removed != 0 {
			t.Errorf("an explicit collection after the script removed %d (err %v): retention left garbage", removed, err)
		}
	})
}

// storeImage is what a store holds, for comparing two runs: its snapshot
// keys and its chunk inventory.
func storeImage(t testing.TB, b storage.Backend) string {
	t.Helper()
	addrs, err := storage.NewChunkStore(storage.WithPrefix(b, ChunkPrefix)).List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(addrs)
	return fmt.Sprint(refKeys(mustList(t, b)), len(addrs), storage.Hash([]byte(strings.Join(addrs, ","))))
}

// TestRetentionFaultsLeaveWhatOneCollectionReclaims fails the k-th Delete
// of one retention pass, for every k the pass issues, manifests and chunks
// alike. Two things must hold. A successor process needs one explicit
// collection, no more, to leave the store an unfaulted pass would have —
// less the manifest whose delete failed, which its own next pass retires.
// And the faulted manager itself converges without any: the failed
// manifest is re-listed and retried, failed chunk deletes stay pending.
func TestRetentionFaultsLeaveWhatOneCollectionReclaims(t *testing.T) {
	states := bigSeqStates(8)
	opts := Options{Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: MinChunkBytes, Retain: 1}
	// run saves states[:n] on a fresh store, failing the k-th delete of the
	// pass the fourth save (chain 1's anchor) triggers.
	run := func(k, n int) (*faultBackend, *Manager) {
		fb := &faultBackend{Backend: storage.NewMem()}
		o := opts
		o.Backend = fb
		m, err := NewManager(o)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range states[:n] {
			if i == 3 {
				fb.arm("", k)
			}
			mustSave(t, m, s)
		}
		return fb, m
	}
	clean, m := run(0, 4)
	m.Close()
	deletes, want := clean.deletes, storeImage(t, clean)
	if deletes < 4 {
		t.Fatalf("the pass issued %d deletes; want three manifests and at least one chunk", deletes)
	}
	cleanEnd, m := run(0, 8)
	m.Close()
	wantEnd := storeImage(t, cleanEnd)

	for k := 1; k <= deletes; k++ {
		fb, m := run(k, 4)
		m.Close()
		fb.arm("", 0)
		// The successor: one explicit collection.
		m2, err := NewManager(Options{Backend: fb.Backend, ChunkBytes: MinChunkBytes})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m2.CollectOrphans(); err != nil {
			t.Fatal(err)
		}
		checkRefIndex(t, m2.shared, nil, true)
		m2.Close()
		got := storeImage(t, fb.Backend)
		if k > 3 && got != want {
			t.Errorf("delete %d (a chunk) failed: after one collection the store is %s, an unfaulted pass leaves %s", k, got, want)
		}
		if refs := mustList(t, fb.Backend); k <= 3 && (len(refs) != 2 || refs[1].seq != 3) {
			t.Errorf("delete %d (a manifest) failed: the store holds %v, want the surviving manifest and the new anchor", k, refKeys(refs))
		}
		mustRestoreLatest(t, fb.Backend, states[3])

		// The faulted manager, left running to the next chain's pass.
		fb, m = run(k, 8)
		checkRefIndex(t, m.shared, nil, true)
		m.Close()
		if got := storeImage(t, fb.Backend); got != wantEnd {
			t.Errorf("delete %d failed: four saves on the store is %s, an unfaulted run's %s", k, got, wantEnd)
		}
		mustRestoreLatest(t, fb.Backend, states[7])
	}
}

// TestServiceConcurrentRetention is the -race stress for the index:
// several jobs of one Service save the same drifting content concurrently,
// every one retiring a chain every third save, while a collector runs
// explicit collections beside them. Nothing a manifest names may ever be
// swept, and the index must equal a scan when the dust settles.
func TestServiceConcurrentRetention(t *testing.T) {
	const jobs, saves = 4, 24
	mem := storage.NewMem()
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	var stop atomic.Bool
	last := make([]*TrainingState, jobs)
	for j := 0; j < jobs; j++ {
		m, err := svc.OpenJob(fmt.Sprintf("job%d", j), Options{
			Strategy: StrategyDelta, AnchorEvery: 3, Retain: 1, ChunkBytes: MinChunkBytes, Workers: 2, Async: j%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for _, s := range serviceJobStates(j%2, saves) { // pairs of jobs save identical content
				if _, err := m.Save(s); err != nil {
					t.Errorf("job %d step %d: %v", j, s.Step, err)
					return
				}
				last[j] = s
			}
			if err := m.Barrier(); err != nil {
				t.Errorf("job %d: %v", j, err)
			}
		}(j)
	}
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for !stop.Load() {
			if _, _, err := svc.CollectOrphans(); err != nil {
				t.Errorf("collection: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-collected
	checkRefIndex(t, svc.shared, nil, true)
	for j := 0; j < jobs; j++ {
		view, _ := svc.JobView(fmt.Sprintf("job%d", j))
		mustRestoreLatest(t, view, last[j])
		if ok, problems, err := VerifyBackend(view); err != nil || len(problems) != 0 {
			t.Errorf("job %d: %d sound, problems %v, err %v", j, ok, problems, err)
		}
	}
	if removed, _, err := svc.CollectOrphans(); err != nil || removed != 0 {
		t.Errorf("a last collection removed %d chunks (err %v): a pass left garbage behind", removed, err)
	}
}

// FuzzRefIndexMatchesScan runs random op scripts — save, failed commit,
// foreign delete, explicit collection, reopen — over one store under
// Retain 1 or 2, fixed or content-defined chunks, and after every op holds
// the index to a fresh scan: no referenced chunk missing, nothing in the
// index the store does not hold except a manifest someone else deleted
// behind it (which may only make it keep too much, until retention or a
// collection notices), and the newest snapshot restoring bitwise.
func FuzzRefIndexMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 1, 0, 2, 2, 0, 0, 0, 3, 0, 0, 0})
	states := bigSeqStates(40)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 || len(script) > 40 {
			return
		}
		fb := &faultBackend{Backend: storage.NewMem()}
		opt := Options{
			Backend: fb, Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: MinChunkBytes,
			Retain: 1 + int(script[0]>>1&1), Chunker: Chunker(script[0] & 1),
		}
		open := func() *Manager {
			m, err := NewManager(opt)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := open()
		defer func() { m.Close() }()
		foreign := map[string]bool{} // manifests deleted behind the manager, not yet noticed
		var newest *TrainingState
		for step, op := range script[1:] {
			s := states[step]
			switch op % 5 {
			case 0, 1: // save (twice as likely as the rest)
				if res := mustSave(t, m, s); res.Kind == KindFull || newest != nil {
					newest = s // a delta on a chain whose anchor someone deleted restores nothing
				}
			case 2: // a save whose manifest commit fails
				fb.arm(snapshotName(m.seq, KindFull), 0)
				fb.mu.Lock()
				fb.failPut = strings.TrimSuffix(fb.failPut, "full.qckpt") // either kind
				fb.mu.Unlock()
				_, err := m.Save(s)
				fb.arm("", 0)
				if err == nil && newest != nil {
					newest = s // the prefix matched nothing: an ordinary save
				}
			case 3: // someone deletes the oldest manifest behind the manager
				if refs := mustList(t, fb); len(refs) > 1 {
					fb.Backend.Delete(refs[0].key)
					foreign[refs[0].key] = true
					if refs[1].kind == KindDelta {
						newest = nil // its chain lost its anchor; what restores is not asserted
					}
				}
			case 4: // explicit collection, then a successor process
				if _, _, err := m.CollectOrphans(); err != nil {
					t.Fatal(err)
				}
				clear(foreign)
				checkRefIndex(t, m.shared, nil, true)
				m.Close()
				m = open()
			}
			sc := m.shared
			fresh, err := allManifestReferences(sc.root)
			if err != nil {
				t.Fatal(err)
			}
			for key, addrs := range fresh {
				for _, a := range addrs {
					if !sc.store.Has(a) {
						t.Fatalf("op %d: %s names %.12s…, which is gone", step, key, a)
					}
				}
				if sc.built && !reflect.DeepEqual(sc.manifests[key], addrs) {
					t.Fatalf("op %d: index and store disagree on %s", step, key)
				}
			}
			for key := range sc.manifests {
				if _, ok := fresh[key]; !ok && !foreign[key] {
					t.Fatalf("op %d: index holds %s, which this process deleted", step, key)
				}
			}
			if len(foreign) == 0 {
				checkRefIndex(t, sc, orphansOfPredecessors(t, sc), false)
			}
			if newest != nil {
				mustRestoreLatest(t, fb, newest)
			}
		}
	})
}

// orphansOfPredecessors excuses, in a fuzz script, the unreferenced chunks
// this process's index was never told about: whatever was in the store
// unreferenced when the index was built is a predecessor's.
func orphansOfPredecessors(t testing.TB, sc *sharedChunks) map[string]bool {
	debris := orphansOf(t, sc.root)
	sc.ixMu.Lock()
	defer sc.ixMu.Unlock()
	for a := range sc.pending {
		delete(debris, a) // ours: checkRefIndex judges those itself
	}
	return debris
}

// opCounter counts the backend operations of a retention pass. It declares
// no capability, so every read arrives as a Get.
type opCounter struct {
	storage.Forward
	list, get, stat, del atomic.Int64
}

func (c *opCounter) List(p string) ([]string, error) { c.list.Add(1); return c.Backend.List(p) }
func (c *opCounter) Get(k string) ([]byte, error)    { c.get.Add(1); return c.Backend.Get(k) }
func (c *opCounter) Delete(k string) error           { c.del.Add(1); return c.Backend.Delete(k) }
func (c *opCounter) Stat(k string) (storage.ObjectInfo, error) {
	c.stat.Add(1)
	return c.Backend.Stat(k)
}

// BenchmarkRetentionPass retires one chain per iteration — a save with
// retention off, then the pass itself, Manager.gc, which sweeps the chunks
// only that chain named — in a store that holds K chains, as one manager's
// history or as K jobs of a Service. The pass is clocked and its backend
// operations counted apart from the save (pass-ns/op, *-ops/op; ns/op and
// allocs/op cover both, Start/StopTimer around every pass costing more than
// the pass), and its allocations are measured over the first 32 passes
// (pass-allocs/op). Every column is flat in K; before the reference index
// list-, get-ops/op and the allocations grew with it (a listing, every
// surviving manifest re-read, the whole chunk inventory walked).
func BenchmarkRetentionPass(b *testing.B) {
	for _, shape := range []string{"chains", "jobs"} {
		for _, k := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%s=%d", shape, k), func(b *testing.B) {
				ctr := &opCounter{Forward: storage.Forward{Backend: storage.NewMem()}}
				opt := Options{Strategy: StrategyFull, ChunkBytes: MinChunkBytes}
				var m *Manager
				retain := k
				if shape == "chains" {
					opt.Backend = ctr
					var err error
					if m, err = NewManager(opt); err != nil {
						b.Fatal(err)
					}
					for i := 0; i < k; i++ {
						mustSave(b, m, retentionState(i))
					}
				} else {
					svc, err := NewService(ServiceOptions{Backend: ctr})
					if err != nil {
						b.Fatal(err)
					}
					defer svc.Close()
					for j := 0; j < k; j++ {
						if m, err = svc.OpenJob(fmt.Sprintf("job%02d", j), opt); err != nil {
							b.Fatal(err)
						}
						mustSave(b, m, retentionState(j))
					}
					retain = 1
				}
				defer m.Close()
				var ops [4]int64 // list, get, stat, delete: the passes' own, not the saves'
				var passNs time.Duration
				read := func() [4]int64 {
					return [4]int64{ctr.list.Load(), ctr.get.Load(), ctr.stat.Load(), ctr.del.Load()}
				}
				next := k
				pass := func() {
					mustSave(b, m, retentionState(next)) // retention is off
					next++
					m.opt.Retain = retain
					before, t0 := read(), time.Now()
					m.gc()
					passNs += time.Since(t0)
					m.opt.Retain = 0
					for c, after := range read() {
						ops[c] += after - before[c]
					}
				}
				for i := 0; i <= k; i++ {
					pass() // builds the index, then retires what set-up saved
				}
				const sampled = 32
				var ms0, ms1 runtime.MemStats
				var mallocs uint64
				for i := 0; i < sampled; i++ {
					mustSave(b, m, retentionState(next))
					next++
					m.opt.Retain = retain
					runtime.ReadMemStats(&ms0)
					m.gc()
					runtime.ReadMemStats(&ms1)
					m.opt.Retain = 0
					mallocs += ms1.Mallocs - ms0.Mallocs
				}
				ops, passNs = [4]int64{}, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				n := float64(b.N)
				b.ReportMetric(float64(passNs)/n, "pass-ns/op")
				b.ReportMetric(float64(mallocs)/sampled, "pass-allocs/op")
				for c, unit := range []string{"list-ops/op", "get-ops/op", "stat-ops/op", "delete-ops/op"} {
					b.ReportMetric(float64(ops[c])/n, unit)
				}
				if len(m.refs) != retain {
					b.Fatalf("%d snapshots in the catalog after the passes, want %d", len(m.refs), retain)
				}
			})
		}
	}
}

// retentionState is the i-th state a retention benchmark saves: small, so
// the untimed save between two passes is cheap, and one parameter its own,
// so the chain it becomes names one chunk no other chain does and shares
// the rest.
func retentionState(i int) *TrainingState {
	s := NewTrainingState()
	s.Step = uint64(i)
	s.Params = make([]float64, 3*MinChunkBytes/8)
	s.Params[0] = float64(i + 1)
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	return s
}
