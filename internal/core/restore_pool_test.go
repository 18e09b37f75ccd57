package core

import (
	"errors"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// Ownership of the pooled buffers a restore runs on (DESIGN.md §8). Every
// test of the package already runs with TestMain's poolHook overwriting
// whatever goes back to a pool; the tests here add the other half — that
// every owner gives back exactly what it took, on every path — and the cases
// where one process restores again and again into recycled buffers.

// givesBackItsBuffers runs f and fails the test if pooled buffers that went
// out during it have not come back.
func givesBackItsBuffers(t *testing.T, what string, f func()) {
	t.Helper()
	before := pooledOut.Load()
	f()
	if out := pooledOut.Load() - before; out != 0 {
		t.Errorf("%s left %d pooled buffer(s) out of their pools", what, out)
	}
}

// scribblePools takes a stack of buffers out of both pools, overwrites their
// whole capacity and puts them back: whatever still aliases a pooled buffer
// now reads 0x5A.
func scribblePools() {
	var bodies []*refBuf
	var scratch []*[]byte
	for i := 0; i < 32; i++ {
		rb, sp := getBody(0), getScratch()
		for _, b := range [][]byte{rb.b[:cap(rb.b)], (*sp)[:cap(*sp)]} {
			for j := range b {
				b[j] = 0x5A
			}
		}
		bodies, scratch = append(bodies, rb), append(scratch, sp)
	}
	for i := range bodies {
		bodies[i].release()
		putScratch(scratch[i])
	}
}

// TestRestoredStateSharesNothingWithThePools: the state a restore returns is
// the caller's alone. Restore A, restore a different B through the same
// pools, overwrite every pooled buffer — A is still what was saved. Chunked
// and monolithic, serial and with helpers and warmers.
func TestRestoredStateSharesNothingWithThePools(t *testing.T) {
	for name, opts := range map[string]Options{
		"chunked":    chunkedOpts(Options{AnchorEvery: 8}),
		"monolithic": {AnchorEvery: 8},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := bigSeqStates(6), incompressibleStates(6)
			storeA, storeB := saveChain(t, opts, a), saveChain(t, opts, b)
			for _, ro := range []RestoreOptions{{}, {Workers: 2, Prefetch: 4}} {
				var gotA, gotB *TrainingState
				givesBackItsBuffers(t, "two restores", func() {
					var err error
					if gotA, _, err = LoadLatestBackendOptions(storeA, nil, ro); err != nil {
						t.Fatal(err)
					}
					if gotB, _, err = LoadLatestBackendOptions(storeB, nil, ro); err != nil {
						t.Fatal(err)
					}
				})
				scribblePools()
				if !gotA.Equal(a[5]) || !gotB.Equal(b[5]) {
					t.Errorf("workers %d: a restored state changed when the pooled buffers were overwritten", ro.Workers)
				}
			}
		})
	}
}

// TestFallbackRestoresIntoTheFailedCandidatesBuffer: the newest snapshot's
// walk dies half-way — a chunk of the last link is damaged, so the payload is
// at an older link when it is given up — and the fallback candidate resolves
// into the buffer that walk returned to the pool. It must come out as the
// older state, bitwise, with nothing left out of the pools.
func TestFallbackRestoresIntoTheFailedCandidatesBuffer(t *testing.T) {
	states := bigSeqStates(6)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states)
	newest := snapshotName(5, KindDelta)
	addrs, err := manifestAddrs(mem, newest)
	if err != nil || len(addrs) == 0 {
		t.Fatalf("newest manifest: %d chunks, %v", len(addrs), err)
	}
	older, err := manifestAddrs(mem, snapshotName(4, KindDelta))
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, a := range addrs { // a chunk only the newest link names
		if !strings.Contains(strings.Join(older, " "), a) {
			victim = a
		}
	}
	if victim == "" {
		t.Fatal("the newest link shares every chunk with the one below it")
	}
	rewriteObject(t, mem, ChunkKey(victim), func(data []byte) []byte {
		data[len(data)/2] ^= 0x01
		return data
	})
	for _, ro := range []RestoreOptions{{}, {Workers: 2, Prefetch: 4}} {
		givesBackItsBuffers(t, "a restore that fell back", func() {
			got, report, err := LoadLatestBackendOptions(mem, nil, ro)
			if err != nil {
				t.Fatal(err)
			}
			if report.Seq != 4 || len(report.Skipped) != 1 || !got.Equal(states[4]) {
				t.Errorf("workers %d: restored seq %d, skipped %v; want seq 4 bitwise after one skip", ro.Workers, report.Seq, report.Skipped)
			}
		})
	}
}

// TestVerifyAndMaintenanceGiveBackTheirBuffers: VerifyBackend over a forest
// with a fork (the pooled copy in descend), a broken branch and a sound one
// reports what it always has and gives back every buffer; so do compaction,
// archiving and the exported body reader, whose result is the caller's own.
func TestVerifyAndMaintenanceGiveBackTheirBuffers(t *testing.T) {
	states := bigSeqStates(6)
	dir := t.TempDir()
	b := dirStore(t, dir)
	m, err := NewManager(chunkedOpts(Options{Backend: b, Strategy: StrategyDelta, AnchorEvery: 8}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states[:5] {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Fork: a second delta against seq 1's payload, numbered past the tip.
	base, _ := EncodePayload(states[1])
	fork, _ := EncodePayload(states[5])
	putSnapshot(t, b, snapshotName(5, KindDelta),
		Header{Kind: KindDelta, Seq: 5, Step: 5, BaseHash: PayloadHash(base), PayloadHash: PayloadHash(fork)}, AppendDelta(nil, base, fork))

	givesBackItsBuffers(t, "VerifyBackend over a sound fork", func() {
		if ok, problems, err := VerifyBackend(b); err != nil || ok != 6 || len(problems) != 0 {
			t.Errorf("sound fork: ok=%d problems=%v err=%v", ok, problems, err)
		}
	})
	var snap Snapshot
	givesBackItsBuffers(t, "InspectSnapshot", func() {
		if snap, err = InspectSnapshot(b, snapshotName(0, KindFull)); err != nil {
			t.Fatal(err)
		}
	})
	scribblePools()
	if !snap.State.Equal(states[0]) {
		t.Error("InspectSnapshot's state changed when the pooled buffers were overwritten: it is not the caller's own")
	}

	substituteWrongDelta(t, b, 3) // breaks 3 and 4; the fork off seq 1 stays sound
	givesBackItsBuffers(t, "VerifyBackend over a broken branch", func() {
		ok, problems, err := VerifyBackend(b)
		if err != nil || ok != 4 || len(problems) != 2 {
			t.Fatalf("broken branch: ok=%d problems=%v err=%v, want links 4 and 3 broken", ok, problems, err)
		}
		for i, seq := range []uint64{4, 3} {
			if !strings.HasPrefix(problems[i], snapshotName(seq, KindDelta)) || !strings.Contains(problems[i], "at seq 3") {
				t.Errorf("problems[%d] = %q, want snapshot %d blamed on seq 3", i, problems[i], seq)
			}
		}
	})
	givesBackItsBuffers(t, "CompactBackend", func() {
		if _, _, err := CompactBackend(b, true); err != nil {
			t.Error(err)
		}
	})
	got, _, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
	if err != nil || !got.Equal(states[5]) {
		t.Errorf("after compaction: %v, want the fork tip bitwise", err)
	}
}

// slowLinks is a Hook over a chain's store under which a warmer's Get of a
// link's manifest takes delay on clk. The resolver's header probe before
// the walk is a ranged read (OpGetRange) and passes; a link's one Get is
// the warmer's. That one is held until the next link's warmer has sent its
// own: by then the resolver has started the next warmer and waits on this
// one, so the delay falls inside that wait and nowhere else. The chain's
// last link has no next one; its Get is not slowed.
type slowLinks struct {
	clk     *fakeClock
	delay   time.Duration
	next    map[string]string // each link's manifest key to the next link's, "" for the last
	mu      sync.Mutex
	arrived map[string]chan struct{} // closed when the link's warmer Get arrives
}

// arrival is key's arrived channel, made on first use; s.mu is held.
func (s *slowLinks) arrival(key string) chan struct{} {
	if s.arrived[key] == nil {
		s.arrived[key] = make(chan struct{})
	}
	return s.arrived[key]
}

func (s *slowLinks) hold(op storage.Op) (int64, error) {
	next, link := s.next[op.Key]
	if op.After || op.Kind != storage.OpGet || !link {
		return 0, nil
	}
	s.mu.Lock()
	close(s.arrival(op.Key))
	var wait chan struct{}
	if next != "" {
		wait = s.arrival(next)
	}
	s.mu.Unlock()
	if wait != nil {
		<-wait
		s.clk.Sleep(s.delay)
	}
	return 0, nil
}

// batchMem is a Mem that declares a native batch read, as a remote store
// does: a restore through it warms its anchor too. It counts the chunks
// read one at a time.
type batchMem struct {
	*storage.Mem
	chunkGets *atomic.Int64
}

func (b batchMem) Caps() storage.CapSet {
	c := storage.Caps(b.Mem)
	c.Batch = b
	return c
}

func (b batchMem) Get(key string) ([]byte, error) {
	if _, ok := storage.ChunkKeyAddr(key); ok {
		b.chunkGets.Add(1)
	}
	return b.Mem.Get(key)
}

func (b batchMem) GetBatch(keys []string) ([][]byte, []error) { return storage.GetBatch(b.Mem, keys) }

// TestLoadCostChargesWaitsOnTheWarmersToFetch: the stages of a LoadCost add
// up to what the caller waited. What a walk spends waiting for a link's
// warmer — here the warmed manifests are made slow to get, and nothing else
// takes any time — is time spent getting that link's objects: it must show
// up in Fetch, each delay exactly once, and the stages together must account
// for the restore. On a store that batches, the anchor's warm is waited for
// too, before the anchor is read, and no chunk is read but in a batch.
func TestLoadCostChargesWaitsOnTheWarmersToFetch(t *testing.T) {
	const links, delay = 6, 20 * time.Millisecond
	states := bigSeqStates(links)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states)
	var chunkGets atomic.Int64
	for _, tc := range []struct {
		name    string
		store   storage.Backend
		batches bool
	}{
		{"mem", mem, false},
		{"batching", batchMem{mem, &chunkGets}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock(0)
			slow := &slowLinks{clk: clk, delay: delay, next: map[string]string{}, arrived: map[string]chan struct{}{}}
			for seq := uint64(1); seq < links; seq++ {
				slow.next[snapshotName(seq, KindDelta)] = ""
				if seq < links-1 {
					slow.next[snapshotName(seq, KindDelta)] = snapshotName(seq+1, KindDelta)
				}
			}
			slowed := links - 2 // every link a warmer reads first
			if tc.batches {     // and the anchor, whose warm gets it beside the first link's
				slow.next[snapshotName(0, KindFull)] = snapshotName(1, KindDelta)
				slowed++
			}
			v := newSnapshotView(storage.Observe(tc.store, slow.hold), RestoreOptions{Workers: 2, Prefetch: 4})
			start := clk.peek()
			v.stopwatch = stopwatch{clk, clk.Now()}
			got, report, err := v.latest(nil)
			if err != nil || !got.Equal(states[links-1]) {
				t.Fatalf("restore through the slow store: %v", err)
			}
			want := time.Duration(slowed) * delay
			if c := report.LoadCost; c.Fetch != want || c.Total() != want {
				t.Errorf("stages %+v when %d warmed manifests each took %v to get, want Fetch %v and nothing else", c, slowed, delay, want)
			}
			if wall := clk.sinceLast(start); report.Total() != wall {
				t.Errorf("stages sum to %v of a %v restore", report.Total(), wall)
			}
			if n := chunkGets.Load(); n != 0 {
				t.Errorf("%d chunks read one at a time from a store that batches", n)
			}
		})
	}
}

// TestConcurrentRestorersShareThePools: two restorers of one store run
// side by side, each again and again, so each resolves into buffers the other
// just gave back (what substep_remote's two tenants do). Run with -race
// -count=10.
func TestConcurrentRestorersShareThePools(t *testing.T) {
	states := bigSeqStates(12)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 6}), states)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 2, Prefetch: 4})
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(states[11]) {
					t.Error("a restore beside another restorer is not bitwise")
				}
			}
		}()
	}
	wg.Wait()
	if _, problems, err := VerifyBackend(mem); err != nil || len(problems) != 0 {
		t.Errorf("verify: %v %v", problems, err)
	}
}

// TestFailedWalkLeaksNoScratch: a walk that stops at its first error —
// helpers mid-fetch, pieces fetched ahead and never visited — puts every
// scratch buffer back, whichever chunk fails and however many helpers run.
func TestFailedWalkLeaksNoScratch(t *testing.T) {
	mem := storage.NewMem()
	cs := storage.NewChunkStore(mem)
	manifest := buildChunkedBody(t, cs, restoreTestBody(64<<10), 1<<10)
	info, err := decodeChunkManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	distinct, _ := distinctAddrs(info.addrs)
	for _, at := range []int{0, len(distinct) / 2, len(distinct) - 1} {
		key := distinct[at][:2] + "/" + distinct[at]
		good, err := mem.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		rewriteObject(t, mem, key, func(data []byte) []byte {
			data[len(data)-1] ^= 0xFF
			return data
		})
		for _, ro := range []RestoreOptions{{}, {Workers: 4, Prefetch: 8}} {
			givesBackItsBuffers(t, "a failed walk", func() {
				if _, err := assembleWith(cs, manifest, ro); !errors.Is(err, ErrCorrupt) {
					t.Errorf("chunk %d damaged, workers %d: err = %v, want ErrCorrupt", at, ro.Workers, err)
				}
			})
			givesBackItsBuffers(t, "a walk whose visitor gave up", func() {
				visits := 0
				err := (&snapshotView{stopwatch: stopwatch{clock: newFakeClock(0)}, cs: cs, opts: ro}).walkPieces(info, func(int, []byte) error {
					if visits++; visits > at {
						return errors.New("enough")
					}
					return nil
				})
				if err == nil {
					t.Error("the visitor's error was dropped")
				}
			})
		}
		if err := mem.Put(key, good); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadCostSumsToWall holds the restore ledger to the clock: the stages
// of a LoadCost, lapped back to back on the restoring goroutine, add up to
// LoadLatestBackendOptions' own wall time with under 5 % unattributed —
// serial and parallel, monolithic and chunked, an anchor alone and a
// 16-link chain. On a fake clock, where every reading is a tick past the
// last, they add up to the span of the view's readings exactly: every
// reading the resolving goroutine takes is a lap.
func TestLoadCostSumsToWall(t *testing.T) {
	const params, restores = 64 << 10, 10
	for _, tc := range []struct {
		name  string
		opt   Options
		saves int
		ro    RestoreOptions
		fake  bool // on a fakeClock: nothing unattributed
	}{
		{"monolithic-anchor", Options{}, 1, RestoreOptions{}, false},
		{"monolithic-chain", Options{}, 17, RestoreOptions{}, false},
		{"chunked-anchor-serial", Options{ChunkBytes: 8 << 10}, 1, RestoreOptions{}, false},
		{"chunked-chain-serial", Options{ChunkBytes: 8 << 10}, 17, RestoreOptions{}, false},
		{"chunked-anchor-parallel", Options{ChunkBytes: 8 << 10}, 1, RestoreOptions{Workers: 4, Prefetch: 4}, false},
		{"chunked-chain-parallel", Options{ChunkBytes: 8 << 10}, 17, RestoreOptions{Workers: 4, Prefetch: 4}, false},
		{"fake-clock-monolithic-chain", Options{}, 17, RestoreOptions{}, true},
		{"fake-clock-chunked-chain-parallel", Options{ChunkBytes: 8 << 10}, 17, RestoreOptions{Workers: 4, Prefetch: 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(9))
			states := make([]*TrainingState, tc.saves)
			s := NewTrainingState()
			s.Params = make([]float64, params)
			for i := range s.Params {
				s.Params[i] = r.NormFloat64()
			}
			for i := range states {
				for j := 0; j < 256; j++ {
					s.Params[(i*256+j)%params] += 1e-3
				}
				s.Step++
				states[i] = s.Clone()
			}
			tc.opt.AnchorEvery = 32
			mem := saveChain(t, tc.opt, states)
			var wall, sum time.Duration
			for i := 0; i < restores; i++ {
				// The wall runs from the view's origin, its first reading:
				// a clock read before the constructor would also count a
				// preemption at the call against the ledger.
				v, since := newSnapshotView(mem, tc.ro), time.Since
				if tc.fake {
					clk := newFakeClock(time.Microsecond)
					v.stopwatch, since = stopwatch{clk, clk.Now()}, clk.sinceLast
				}
				start := v.t
				got, report, err := v.latest(nil)
				wall += since(start)
				if err != nil || !got.Equal(states[len(states)-1]) || report.ChainLen != tc.saves {
					t.Fatalf("restore: %v, chain %d", err, report.ChainLen)
				}
				sum += report.Total()
			}
			if rest := wall - sum; rest < 0 || rest > wall/20 || tc.fake && rest != 0 {
				t.Errorf("the stages sum to %v of a %v wall: %v unattributed", sum, wall, rest)
			}
			t.Logf("wall %v, stages %v", wall/restores, sum/restores)
		})
	}
}

// TestRestoreOpsWithoutNativeBatch: on a store that reads no batch natively
// — Mem, Local, a Tiered store of Locals with the chain on its cold level —
// a two-worker restore warms no anchor and asks the store for what the
// serial walk asks: every operation kind as often, each manifest and each
// distinct chunk once, per level.
func TestRestoreOpsWithoutNativeBatch(t *testing.T) {
	states := bigSeqStates(12)
	src := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states)
	keys, err := src.List("")
	if err != nil {
		t.Fatal(err)
	}
	local := func(t *testing.T) storage.Backend {
		l, err := storage.NewLocal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	stores := []struct {
		name string
		open func(t *testing.T, hook storage.Hook) (b, fill storage.Backend)
	}{
		{"mem", func(t *testing.T, hook storage.Hook) (storage.Backend, storage.Backend) {
			m := storage.NewMem()
			return storage.Observe(m, hook), m
		}},
		{"local", func(t *testing.T, hook storage.Hook) (storage.Backend, storage.Backend) {
			l := local(t)
			return storage.Observe(l, hook), l
		}},
		{"tiered-local", func(t *testing.T, hook storage.Hook) (storage.Backend, storage.Backend) {
			cold := local(t)
			tb, err := storage.NewTiered(storage.Level{Name: "hot", Backend: storage.Observe(local(t), hook)}, storage.Level{Name: "cold", Backend: storage.Observe(cold, hook)})
			if err != nil {
				t.Fatal(err)
			}
			return tb, cold
		}},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			ops := func(opts RestoreOptions) map[storage.OpKind]int {
				var mu sync.Mutex
				seen := map[storage.OpKind]int{}
				b, fill := st.open(t, func(op storage.Op) (int64, error) {
					if !op.After {
						mu.Lock()
						seen[op.Kind]++
						mu.Unlock()
					}
					return 0, nil
				})
				for _, k := range keys {
					data, err := src.Get(k)
					if err == nil {
						err = fill.Put(k, data)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if newSnapshotView(b, opts).batches {
					t.Errorf("%s declares a native batch", b.Name())
				}
				got, _, err := LoadLatestBackendOptions(b, nil, opts)
				if err != nil || !got.Equal(states[len(states)-1]) {
					t.Fatalf("restore with %d workers: %v", opts.Workers, err)
				}
				return seen
			}
			serial, parallel := ops(RestoreOptions{}), ops(RestoreOptions{Workers: 2, Prefetch: 4})
			if !maps.Equal(serial, parallel) || serial[storage.OpGet] == 0 {
				t.Errorf("two workers ask for %v, one for %v (by op kind)", parallel, serial)
			}
		})
	}
}
