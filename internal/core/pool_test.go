package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// pooledOut is how many pooled buffers — bodies and scratch — are out of
// their pools right now (poolHook).
var pooledOut atomic.Int64

// TestMain runs every test of the package with poolHook set: each buffer
// that goes back to a pool is overwritten with 0xDB first, so a restored
// state, a retained base or a piece that still aliases it fails its bitwise
// comparison instead of passing until the buffer happens to be reused, and
// pooledOut lets a test assert that a call gave back all it took. Benchmarks
// run without it: the fill is not part of what they measure.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		poolHook = func(delta int, returned []byte) {
			pooledOut.Add(int64(delta))
			for i := range returned {
				returned[i] = 0xDB
			}
		}
	}
	os.Exit(m.Run())
}

// TestPooledCodecRoundTrip proves the pooled append-style coders produce
// exactly the bytes of their allocating predecessors and round-trip
// through the pooled decompressor, including interleaved reuse of the
// same pooled buffers.
func TestPooledCodecRoundTrip(t *testing.T) {
	states := seqStates(4)
	var buf []byte
	for _, st := range states {
		want, err := EncodePayload(st)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		buf, err = AppendPayload(buf, st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("AppendPayload diverged from EncodePayload (step %d)", st.Step)
		}
		// Compress into reused scratch and inflate with and without the
		// size hint.
		comp, err := compressAppend(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []int{len(buf), -1} {
			got, err := DecompressBody(comp, hint)
			if err != nil {
				t.Fatalf("hint %d: %v", hint, err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("hint %d: decompression mismatch", hint)
			}
		}
		// Wrong size hints must be rejected as corruption, not padded or
		// truncated.
		if _, err := DecompressBody(comp, len(buf)+1); err == nil {
			t.Fatal("oversized hint accepted")
		}
		if _, err := DecompressBody(comp, len(buf)-1); err == nil {
			t.Fatal("undersized hint accepted")
		}
	}
}

// TestDeltaWordwiseParity checks the word-wise XOR against a byte-loop
// reference across lengths that exercise every tail case, including
// base/cur length mismatches in both directions.
func TestDeltaWordwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bl := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000} {
		for _, cl := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000} {
			base := make([]byte, bl)
			cur := make([]byte, cl)
			rng.Read(base)
			rng.Read(cur)
			delta := EncodeDelta(base, cur)
			// Reference body: byte-wise XOR over the common prefix, raw tail.
			n := min(bl, cl)
			ref := append([]byte(nil), cur...)
			for i := 0; i < n; i++ {
				ref[i] ^= base[i]
			}
			if !bytes.Equal(delta[16:], ref) {
				t.Fatalf("base=%d cur=%d: word-wise delta body diverged", bl, cl)
			}
			back, err := ApplyDelta(base, delta)
			if err != nil {
				t.Fatalf("base=%d cur=%d: %v", bl, cl, err)
			}
			if !bytes.Equal(back, cur) {
				t.Fatalf("base=%d cur=%d: apply did not reconstruct cur", bl, cl)
			}
		}
	}
}

// TestChunkFrameRoundTrip exercises the adaptive frame across
// compressible, incompressible, tiny and empty chunks.
func TestChunkFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 64<<10)
	rng.Read(random)
	cases := []struct {
		name    string
		piece   []byte
		wantRaw bool
	}{
		{"zeros", make([]byte, 32<<10), false},
		{"random", random, true},
		{"tiny-compressible", bytes.Repeat([]byte{42}, 600), false},
		{"tiny-random", random[:600], true},
		{"empty", nil, true}, // flate can only expand zero bytes; raw wins
		{"probe-boundary", random[:2*chunkProbeBytes+1], true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := appendChunkFrame(nil, tc.piece)
			if err != nil {
				t.Fatal(err)
			}
			if gotRaw := frame[0] == chunkFrameRaw; gotRaw != tc.wantRaw {
				t.Errorf("frame flag raw=%v, want %v", gotRaw, tc.wantRaw)
			}
			if len(frame) > len(tc.piece)+chunkFrameHeader {
				t.Errorf("frame %d bytes exceeds piece %d + header", len(frame), len(tc.piece))
			}
			got, scratch, err := decodeChunkFrame(frame, len(tc.piece))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.piece) {
				t.Errorf("round trip mismatch (%d vs %d bytes)", len(got), len(tc.piece))
			}
			if (scratch == nil) != tc.wantRaw {
				t.Errorf("scratch returned = %v for a raw=%v frame: only a compressed chunk inflates into one", scratch != nil, tc.wantRaw)
			} else if scratch != nil {
				putScratch(scratch)
			}
			// Determinism underpins content-addressed dedup across the
			// pooled writers: the same piece must frame identically.
			again, err := appendChunkFrame(nil, tc.piece)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, again) {
				t.Errorf("framing not deterministic")
			}
		})
	}
}

// TestPooledEncodeZeroAllocs locks in the headline property of the pooled
// codec: the synchronous encode stage — payload serialization, delta
// encode, chunk framing, snapshot-file assembly — allocates nothing at
// steady state when running over pooled capacity.
func TestPooledEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	st := seqStates(1)[0]
	base, err := EncodePayload(st)
	if err != nil {
		t.Fatal(err)
	}
	payloadBuf := make([]byte, 0, payloadSizeHint(st)+64)
	deltaBuf := make([]byte, 0, 16+len(base)+64)
	frameBuf := make([]byte, 0, len(base)+chunkFrameHeader+64)
	fileBuf := make([]byte, 0, headerSize+len(base)+96)
	h := Header{Kind: KindFull, PayloadHash: PayloadHash(base)}
	piece := base[:min(len(base), 8<<10)]
	run := func() {
		var err error
		payloadBuf, err = AppendPayload(payloadBuf[:0], st)
		if err != nil {
			t.Fatal(err)
		}
		deltaBuf = AppendDelta(deltaBuf[:0], base, payloadBuf)
		frameBuf, err = appendChunkFrame(frameBuf[:0], piece)
		if err != nil {
			t.Fatal(err)
		}
		fileBuf, err = appendSnapshotFile(fileBuf[:0], h, deltaBuf)
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the flate pools and size every buffer
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("pooled encode stage: %v allocs/op, want 0", allocs)
	}
}

// TestGrowingPayloadReusesPooledBuffers: a training loop appends a loss per
// step, so every payload is eight bytes longer than the last. A body pool
// that allocates exactly what it is asked for finds each recycled buffer
// eight bytes short and allocates a fresh payload on every save (2 MiB per
// save here); with headroom the steady state allocates next to nothing.
func TestGrowingPayloadReusesPooledBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools mid-run,
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and a second P hide a buffer in its private slot
	s := sparseStates(3, 256<<10, 1, 0)[0]
	m, err := NewManager(Options{Backend: storage.NewMem(), Strategy: StrategyFull, ChunkBytes: 64 << 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	save := func() { // only the tail chunk changes: what is left to allocate is the payload
		s.LossHistory = append(s.LossHistory, 1/float64(len(s.LossHistory)+1))
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		save() // fill the pools and the retained bases
	}
	const saves = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < saves; i++ {
		save()
	}
	runtime.ReadMemStats(&after)
	if perSave := (after.TotalAlloc - before.TotalAlloc) / saves; perSave > 64<<10 {
		t.Errorf("%d bytes allocated per save of a state growing 8 bytes a save, want under 64 KiB: the pooled payload buffers are not being reused", perSave)
	}
}

// TestConcurrentSavesNoCrossAliasing drives several managers — which all
// share the package-level codec pools — concurrently and verifies every
// run restores bitwise, proving recycled buffers never leak between
// saves. Run under -race (CI's make test-race) this also catches any
// unsynchronized reuse.
func TestConcurrentSavesNoCrossAliasing(t *testing.T) {
	const runs = 4
	backends := make([]*storage.Mem, runs)
	finals := make([]*TrainingState, runs)
	var wg sync.WaitGroup
	errCh := make(chan error, runs)
	for g := 0; g < runs; g++ {
		backends[g] = storage.NewMem()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mgr, err := NewManager(Options{
				Backend: backends[g], Strategy: StrategyDelta, AnchorEvery: 3,
				ChunkBytes: MinChunkBytes, Workers: 2, Async: g%2 == 0,
			})
			if err != nil {
				errCh <- err
				return
			}
			states := bigSeqStates(8)
			// Distinct content per goroutine so cross-run aliasing cannot
			// hide behind identical payloads.
			for _, s := range states {
				s.Meta.Extra = fmt.Sprintf("run=%d", g)
				s.Params[0] += float64(g)
				if _, err := mgr.Save(s); err != nil {
					errCh <- err
					return
				}
			}
			finals[g] = states[len(states)-1]
			errCh <- mgr.Close()
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < runs; g++ {
		got, _, err := LoadLatestBackendOptions(backends[g], nil, RestoreOptions{})
		if err != nil {
			t.Fatalf("run %d: %v", g, err)
		}
		if !got.Equal(finals[g]) {
			t.Errorf("run %d restored a state from another run's buffers", g)
		}
	}
}
