package core

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
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
		Header{Kind: KindDelta, Seq: 5, Step: 5, BaseHash: PayloadHash(base), PayloadHash: PayloadHash(fork)}, EncodeDelta(base, fork))

	givesBackItsBuffers(t, "VerifyBackend over a sound fork", func() {
		if ok, problems, err := VerifyBackend(b); err != nil || ok != 6 || len(problems) != 0 {
			t.Errorf("sound fork: ok=%d problems=%v err=%v", ok, problems, err)
		}
	})
	var body []byte
	givesBackItsBuffers(t, "ReadSnapshotBody", func() {
		if _, body, err = ReadSnapshotBody(filepath.Join(dir, snapshotName(0, KindFull))); err != nil {
			t.Fatal(err)
		}
	})
	scribblePools()
	if want, _ := EncodePayload(states[0]); string(body) != string(want) {
		t.Error("ReadSnapshotBody's result changed when the pooled buffers were overwritten: it is not the caller's own")
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

// slowKeys delays every Get of the keys it names. Forward declares no
// optional capability, so every full read of an object is a Get.
type slowKeys struct {
	storage.Forward
	delay time.Duration
	slow  map[string]bool
}

func (s *slowKeys) Get(key string) ([]byte, error) {
	if s.slow[key] {
		time.Sleep(s.delay)
	}
	return s.Backend.Get(key)
}

// TestLoadCostChargesWaitsOnTheWarmersToFetch: the stages of a LoadCost add
// up to what the caller waited. What a walk spends waiting for a link's
// warmer — here the warmed manifests are made slow to get, and nothing else
// — is time spent getting that link's objects: it must show up in Fetch, and
// the stages together must account for the restore.
func TestLoadCostChargesWaitsOnTheWarmersToFetch(t *testing.T) {
	const links, delay = 6, 20 * time.Millisecond
	states := bigSeqStates(links)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states)
	ro := RestoreOptions{Workers: 2, Prefetch: 4}
	_, quick, err := LoadLatestBackendOptions(mem, nil, ro)
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowKeys{Forward: storage.Forward{Backend: mem}, delay: delay, slow: make(map[string]bool)}
	for seq := uint64(1); seq < links; seq++ { // every link a warmer reads first
		slow.slow[snapshotName(seq, KindDelta)] = true
	}
	start := time.Now()
	got, report, err := LoadLatestBackendOptions(slow, nil, ro)
	wall := time.Since(start)
	if err != nil || !got.Equal(states[links-1]) {
		t.Fatalf("restore through the slow store: %v", err)
	}
	// Two warmers run at a time, so the walk waits out at least every other
	// delay; it was charged none of them before.
	if grew := report.Fetch - quick.Fetch; grew < (links-1)/2*delay {
		t.Errorf("Fetch grew by %v when %d warmed manifests each took %v longer to get, want at least %v", grew, links-1, delay, (links-1)/2*delay)
	}
	c := report.LoadCost
	sum := c.Index + c.Fetch + c.Apply + c.Verify + c.Decode
	if sum > wall || sum < wall*9/10 {
		t.Errorf("stages sum to %v of a %v restore, want within a tenth below it", sum, wall)
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
				err := walkPieces(cs, info, ro, false, new(LoadCost), func(int, []byte) error {
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
