package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// buildChunkedBody ingests body into cs in chunkBytes pieces and returns
// the manifest, exactly as the save pipeline would lay it out.
func buildChunkedBody(t *testing.T, cs *storage.ChunkStore, body []byte, chunkBytes int) []byte {
	t.Helper()
	pieces := cdcPieces(body, appendCutpoints(nil, body, fixedParams(chunkBytes)))
	addrs := make([]string, len(pieces))
	for i, piece := range pieces {
		frame, err := appendChunkFrame(nil, piece)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := cs.Put(frame)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	return appendChunkManifest(nil, len(body), cdcParams{}, addrs)
}

// assembleWith assembles manifest's body from cs the way recovery does,
// through a snapshotView running the engine under opt.
func assembleWith(cs *storage.ChunkStore, manifest []byte, opt RestoreOptions) ([]byte, error) {
	info, err := decodeChunkManifest(manifest)
	if err != nil {
		return nil, err
	}
	body, err := (&snapshotView{stopwatch: stopwatch{clock: newFakeClock(0)}, cs: cs, opts: opt}).assemble(info)
	if err != nil {
		return nil, err
	}
	defer body.release()
	return slices.Clone(body.b), nil
}

// restoreTestBody builds a body that exercises the engine: unique content
// interleaved with long zero runs, so the manifest repeats chunk
// addresses (the memoized path) as well as naming distinct ones.
func restoreTestBody(n int) []byte {
	body := make([]byte, n)
	for i := range body {
		if (i/512)%3 != 0 {
			body[i] = byte(i*7) ^ byte(i>>9) // aperiodic: distinct chunks stay distinct
		}
	}
	return body
}

func TestAssembleChunksParallelMatchesSerial(t *testing.T) {
	cs := storage.NewChunkStore(storage.NewMem())
	body := restoreTestBody(64 << 10)
	manifest := buildChunkedBody(t, cs, body, 1<<10)

	serial, err := assembleWith(cs, manifest, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, body) {
		t.Fatal("serial assembly diverged from the original body")
	}
	for _, opt := range []RestoreOptions{
		{Workers: -1}, // one worker, not none
		{Workers: 1},
		{Workers: 2},
		{Workers: 4, Prefetch: 1},
		{Workers: 8, Prefetch: 32},
		{Workers: 64}, // more workers than chunks
	} {
		got, err := assembleWith(cs, manifest, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", opt.Workers, err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("workers=%d prefetch=%d: parallel assembly not bitwise-identical", opt.Workers, opt.Prefetch)
		}
	}
}

func TestAssembleChunksParallelEmptyAndTiny(t *testing.T) {
	cs := storage.NewChunkStore(storage.NewMem())
	for _, n := range []int{0, 1, 1024, 1025} {
		body := restoreTestBody(n)
		manifest := buildChunkedBody(t, cs, body, 1<<10)
		got, err := assembleWith(cs, manifest, RestoreOptions{Workers: 4})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

// TestWalkPiecesCallerIsAWorker pins who does the fetching: with one
// worker, and on a manifest too small to pay for a helper, every chunk is
// fetched on the calling goroutine and no goroutine is started; with
// helpers the walk still visits every entry once, in order.
func TestWalkPiecesCallerIsAWorker(t *testing.T) {
	cs := storage.NewChunkStore(storage.NewMem())
	big := buildChunkedBody(t, cs, restoreTestBody(64<<10), 1<<10)
	small := buildChunkedBody(t, cs, restoreTestBody(4<<10), 1<<10)
	for _, tc := range []struct {
		manifest []byte
		opt      RestoreOptions
		alone    bool
	}{
		{big, RestoreOptions{}, true},
		{big, RestoreOptions{Workers: 1, Prefetch: 8}, true},
		{small, RestoreOptions{Workers: 8}, true}, // fewer than helperMinChunks distinct chunks
		{big, RestoreOptions{Workers: 3, Prefetch: 1}, false},
	} {
		info, err := decodeChunkManifest(tc.manifest)
		if err != nil {
			t.Fatal(err)
		}
		before, visits, started := runtime.NumGoroutine(), 0, false
		v := &snapshotView{stopwatch: stopwatch{clock: newFakeClock(0)}, cs: cs, opts: tc.opt}
		err = v.walkPieces(info, func(int, []byte) error {
			visits++
			started = started || runtime.NumGoroutine() > before
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		distinct, _ := distinctAddrs(info.addrs)
		if visits != len(info.addrs) || v.cost.ChunksFetched != len(distinct) {
			t.Errorf("%+v: %d visits of %d entries, %d fetches of %d distinct chunks", tc.opt, visits, len(info.addrs), v.cost.ChunksFetched, len(distinct))
		}
		if tc.alone && started {
			t.Errorf("%+v over %d distinct chunks started a goroutine", tc.opt, len(distinct))
		}
	}
}

// TestParallelRestoreCorruptChunk fault-injects one corrupt and one
// missing chunk mid-assembly and asserts the engine reports a
// deterministic ErrCorrupt, cancels its workers, and leaks no goroutines.
func TestParallelRestoreCorruptChunk(t *testing.T) {
	mem := storage.NewMem()
	cs := storage.NewChunkStore(mem)
	body := restoreTestBody(64 << 10)
	manifest := buildChunkedBody(t, cs, body, 1<<10)
	minfo, err := decodeChunkManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	addrs := minfo.addrs

	// Pick a distinct (non-repeated) victim in the middle of the manifest.
	counts := map[string]int{}
	for _, a := range addrs {
		counts[a]++
	}
	victim := ""
	for _, a := range addrs[len(addrs)/2:] {
		if counts[a] == 1 {
			victim = a
			break
		}
	}
	if victim == "" {
		t.Fatal("no unique chunk to corrupt")
	}
	victimKey := victim[:2] + "/" + victim
	good, err := mem.Get(victimKey)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	if err := mem.Put(victimKey, bad); err != nil {
		t.Fatal(err)
	}

	opts := RestoreOptions{Workers: 8, Prefetch: 4}
	before := runtime.NumGoroutine()
	var firstMsg string
	for trial := 0; trial < 20; trial++ {
		_, err := assembleWith(cs, manifest, opts)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: err = %v, want ErrCorrupt", trial, err)
		}
		if !strings.Contains(err.Error(), victim[:12]) {
			t.Fatalf("trial %d: error does not name the corrupt chunk: %v", trial, err)
		}
		if firstMsg == "" {
			firstMsg = err.Error()
		} else if err.Error() != firstMsg {
			t.Fatalf("nondeterministic failure: %q vs %q", firstMsg, err.Error())
		}
	}

	// Missing chunk fails the same way.
	if err := mem.Delete(victimKey); err != nil {
		t.Fatal(err)
	}
	if _, err := assembleWith(cs, manifest, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing chunk: err = %v, want ErrCorrupt", err)
	}

	// Every failed assembly must have drained its pool: allow the runtime
	// a moment to retire exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutine leak: %d before, %d after failed restores", before, n)
	}
}

// TestLoadLatestParallelMatchesSerial drives the full recovery path — a
// chunked delta chain with the history demoted to a cold tier level —
// through both engines and demands bitwise-identical results.
func TestLoadLatestParallelMatchesSerial(t *testing.T) {
	levels := []storage.Level{
		{Name: "hot", Backend: storage.NewMem()},
		{Name: "cold", Backend: storage.NewMem()},
	}
	tiered, err := storage.NewTiered(levels...)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(chunkedOpts(Options{Backend: tiered, Strategy: StrategyDelta, AnchorEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(10)
	for _, s := range states {
		if _, err := mgr.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	keys, err := tiered.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := tiered.CopyTo(k, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := tiered.DeleteOutside(k, 1); err != nil {
			t.Fatal(err)
		}
	}

	serial, serialReport, err := LoadLatestBackendOptions(tiered, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, parallelReport, err := LoadLatestBackendOptions(tiered, nil, RestoreOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !parallel.Equal(serial) || !parallel.Equal(states[9]) {
		t.Error("parallel restore diverged from serial restore")
	}
	if parallelReport.Seq != serialReport.Seq || parallelReport.ChainLen != serialReport.ChainLen {
		t.Errorf("reports diverged: %+v vs %+v", parallelReport, serialReport)
	}
	if parallelReport.ChainLen < 2 {
		t.Errorf("chain length %d exercises no prefetch", parallelReport.ChainLen)
	}
}

// gatedBackend blocks snapshot-manifest Puts until released, exposing the
// window where a chunked save's chunks are durable but its manifest is
// not — the window the GC/in-flight-save race lives in.
type gatedBackend struct {
	*storage.Observed
	arrived chan string   // receives the key of each blocked manifest Put
	release chan struct{} // closed to let blocked Puts proceed
}

// gatePuts observes base, parking each Put whose key match accepts.
func gatePuts(base storage.Backend, match func(key string) bool) *gatedBackend {
	// arrived has room for every Put a test parks without reading it: a
	// second one must block on release, not on the announcement.
	g := &gatedBackend{arrived: make(chan string, 8), release: make(chan struct{})}
	g.Observed = storage.Observe(base, func(op storage.Op) (int64, error) {
		if !op.After && op.Kind == storage.OpPut && match(op.Key) {
			g.arrived <- op.Key
			<-g.release
		}
		return 0, nil
	})
	return g
}

// gateManifests parks every snapshot-manifest Put of base.
func gateManifests(base storage.Backend) *gatedBackend {
	return gatePuts(base, func(key string) bool { return strings.HasPrefix(key, snapshotKeyPrefix) })
}

// TestGCDoesNotCollectInFlightChunks interleaves orphan-chunk GC with a
// mid-flight async chunked save: the save's chunks are fully ingested,
// its manifest commit is blocked, and GC runs. Without the Manager's pins
// every one of those chunks is an "orphan" (no manifest references them
// yet) and the committed manifest would dangle; with pins GC must leave
// them alone and the save must restore bitwise afterwards.
func TestGCDoesNotCollectInFlightChunks(t *testing.T) {
	mem := storage.NewMem()
	gated := gateManifests(mem)
	m, err := NewManager(Options{
		Backend: gated, Strategy: StrategyFull,
		ChunkBytes: MinChunkBytes, Workers: 2, Async: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(1)
	if _, err := m.Save(states[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gated.arrived: // all chunks ingested, manifest Put parked
	case <-time.After(5 * time.Second):
		t.Fatal("async save never reached the manifest commit")
	}

	cs := storage.NewChunkStore(storage.WithPrefix(mem, ChunkPrefix))
	chunksBefore, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunksBefore) == 0 {
		t.Fatal("no chunks ingested before the manifest commit")
	}
	removed, _, err := m.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("GC deleted %d in-flight chunk(s) out from under the uncommitted manifest", removed)
	}
	chunksAfter, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(chunksAfter) != len(chunksBefore) {
		t.Fatalf("chunk inventory changed under GC: %d -> %d", len(chunksBefore), len(chunksAfter))
	}

	close(gated.release)
	if err := m.Barrier(); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore after GC-interleaved save: %v", err)
	}
	if !got.Equal(states[0]) {
		t.Error("state corrupted by GC racing the save")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Pins must drain with the commit: a post-commit pass collects nothing
	// (the manifest now holds the keep-set) and the pin table is empty.
	if removed, _, err := m.CollectOrphans(); err != nil || removed != 0 {
		t.Errorf("post-commit GC: removed=%d err=%v", removed, err)
	}
	if pinned := m.pinnedChunks(); len(pinned) != 0 {
		t.Errorf("%d chunk pin(s) leaked past the manifest commit", len(pinned))
	}
}

// TestParallelRestoreConcurrentReaders hammers one chunked directory with
// many concurrent parallel restores — the sharing pattern a fleet of
// resuming workers produces — and checks every reader sees the same
// state. Run with -race to check the cache and engine locking.
func TestParallelRestoreConcurrentReaders(t *testing.T) {
	mem := storage.NewMem()
	mgr, err := NewManager(chunkedOpts(Options{Backend: mem, Strategy: StrategyDelta, AnchorEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(8)
	for _, s := range states {
		if _, err := mgr.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 4})
			if err != nil {
				errCh <- err
				return
			}
			if !got.Equal(states[7]) {
				errCh <- fmt.Errorf("reader %d restored a diverged state", g)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
