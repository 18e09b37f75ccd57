package core

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// pooledOut is how many pooled buffers — bodies and scratch — are out of
// their pools right now, and zeroReturns how many delta bodies went back to
// a manager's free list so far (poolHook).
var pooledOut, zeroReturns atomic.Int64

// TestMain runs every test of the package with poolHook set: each buffer
// that goes back to a pool is overwritten with 0xDB first, so a restored
// state, a retained base or a piece that still aliases it fails its bitwise
// comparison instead of passing until the buffer happens to be reused, and
// pooledOut lets a test assert that a call gave back all it took. A delta
// body going back to its free list is not overwritten but checked: it must
// be zero over its whole capacity, which the next delta body relies on.
// Benchmarks run without the hook: the fill is not part of what they
// measure.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		poolHook = func(delta int, returned []byte, zero bool) {
			pooledOut.Add(int64(delta))
			if zero {
				zeroReturns.Add(1)
				if !allZero(returned) {
					panic(fmt.Sprintf("a delta body of %d bytes went back to its free list not all zero", len(returned)))
				}
				return
			}
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
			got, err := inflate(nil, comp, hint)
			if err != nil {
				t.Fatalf("hint %d: %v", hint, err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("hint %d: decompression mismatch", hint)
			}
		}
		// Wrong size hints must be rejected as corruption, not padded or
		// truncated.
		if _, err := inflate(nil, comp, len(buf)+1); err == nil {
			t.Fatal("oversized hint accepted")
		}
		if _, err := inflate(nil, comp, len(buf)-1); err == nil {
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
			delta := AppendDelta(nil, base, cur)
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

// Pieces of the kinds a chunk of a training state holds, n bytes each.
func float64Piece(n int, f func() float64) []byte {
	p := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], math.Float64bits(f()))
	}
	return p
}

func float32Piece(n int, f func() float32) []byte {
	p := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(p[i:], math.Float32bits(f()))
	}
	return p
}

// adamPiece interleaves Adam's first and second moments of a gradient
// stream: m an EMA of N(0, 10⁻³) gradients, v of their squares.
func adamPiece(rng *rand.Rand, n int) []byte {
	var m, v float64
	odd := false
	return float64Piece(n, func() float64 {
		if odd = !odd; odd {
			g := 1e-3 * rng.NormFloat64()
			m, v = 0.9*m+0.1*g, 0.999*v+0.001*g*g
			return m
		}
		return v
	})
}

// chunkKind is a piece with the decision of the trial-deflate rule the
// order-0 probe replaced (refRaw) and of the probe (wantRaw).
type chunkKind struct {
	name            string
	piece           []byte
	refRaw, wantRaw bool
}

// chunkKinds is the frame table, each kind at 64 KiB. Where the two rules
// agree the frames must be byte-identical; the two kinds where they differ
// are the documented divergences (DESIGN.md §9).
func chunkKinds() []chunkKind {
	rng := rand.New(rand.NewSource(25))
	const n = 64 << 10
	random := make([]byte, n)
	rng.Read(random)
	block := make([]byte, 512)
	rng.Read(block)
	uint32s := make([]byte, n)
	for i := 0; i < n; i += 4 {
		binary.LittleEndian.PutUint32(uint32s[i:], uint32(rng.Intn(1<<20)))
	}
	int64s := make([]byte, n)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(int64s[i:], uint64(rng.Intn(4096)))
	}
	bf16s := make([]byte, n)
	for i := 0; i < n; i += 2 { // the high half of an f32
		binary.LittleEndian.PutUint16(bf16s[i:], uint16(math.Float32bits(float32(rng.NormFloat64()))>>16))
	}
	return []chunkKind{
		{"f64-normal", float64Piece(n, rng.NormFloat64), true, true},
		{"f64-adam-m-v", adamPiece(rng, n), true, true},
		// Divergence: an order-0 code saves ≈ 8 % of f32 mantissas, under
		// the tenth the probe asks for; flate shrank the chunk to ≈ 92 %.
		{"f32-normal", float32Piece(n, func() float32 { return float32(rng.NormFloat64()) }), false, true},
		{"bf16", bf16s, false, false},
		{"uint32-indices", uint32s, false, false},
		{"int64-below-4096", int64s, false, false},
		{"f64-milli", float64Piece(n, func() float64 { return math.Round(rng.NormFloat64()*1000) / 1000 }), false, false},
		{"f64-2^14-levels", float64Piece(n, func() float64 { return float64(rng.Intn(1<<14))/(1<<11) - 4 }), false, false},
		// Divergence: repetition within the sample is all the redundancy
		// there is, which the old probe's LZ77 pass saw and a histogram
		// cannot.
		{"random-512B-repeated", bytes.Repeat(block, n/len(block)), false, true},
		{"random", random, true, true},
		{"zeros", make([]byte, n), false, false},
	}
}

// referenceChunkFrame is the framing rule appendChunkFrame replaced: a
// trial deflate of the first chunkProbeBytes, raw unless that sample shrank
// by at least 1/32.
func referenceChunkFrame(dst, piece []byte) ([]byte, error) {
	head := len(dst)
	dst = append(dst, chunkFrameFlate)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(piece)))
	if len(piece) > 2*chunkProbeBytes {
		sample, err := compressAppend(nil, piece[:chunkProbeBytes])
		if err != nil {
			return nil, err
		}
		if float64(len(sample)) > float64(chunkProbeBytes)*(1-1.0/32) {
			dst[head] = chunkFrameRaw
			return append(dst, piece...), nil
		}
	}
	bodyStart := len(dst)
	dst, err := compressAppend(dst, piece)
	if err != nil {
		return nil, err
	}
	if len(dst)-bodyStart >= len(piece) {
		dst = dst[:bodyStart]
		dst[head] = chunkFrameRaw
		dst = append(dst, piece...)
	}
	return dst, nil
}

// TestChunkFrameRoundTrip exercises the adaptive frame across compressible,
// incompressible, tiny and empty chunks and the table of 64 KiB kinds,
// holding every frame to the reference rule's wherever the two agree.
func TestChunkFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 64<<10)
	rng.Read(random)
	cases := append([]chunkKind{
		{"tiny-compressible", bytes.Repeat([]byte{42}, 600), false, false},
		{"tiny-random", random[:600], true, true},
		{"empty", nil, true, true}, // flate can only expand zero bytes; raw wins
		{"probe-boundary", random[:2*chunkProbeBytes+1], true, true},
	}, chunkKinds()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := appendChunkFrame(nil, tc.piece)
			if err != nil {
				t.Fatal(err)
			}
			if gotRaw := frame[0] == chunkFrameRaw; gotRaw != tc.wantRaw {
				t.Errorf("frame flag raw=%v, want %v", gotRaw, tc.wantRaw)
			}
			ref, err := referenceChunkFrame(nil, tc.piece)
			if err != nil {
				t.Fatal(err)
			}
			if refRaw := ref[0] == chunkFrameRaw; refRaw != tc.refRaw {
				t.Errorf("reference frame flag raw=%v, want %v", refRaw, tc.refRaw)
			}
			if tc.refRaw == tc.wantRaw && !bytes.Equal(frame, ref) {
				t.Errorf("frame differs from the reference rule's, which decides the same")
			}
			if sample := tc.piece[:min(len(tc.piece), chunkProbeBytes)]; len(sample) > 0 {
				t.Logf("order-0 code saves %.1f %% of the sample; frame %.1f %% of the piece, reference %.1f %%",
					100-100*float64(huffmanBits(sample))/float64(8*len(sample)),
					100*float64(len(frame))/float64(len(tc.piece)), 100*float64(len(ref))/float64(len(tc.piece)))
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

// countHeap is a min-heap of symbol counts for heapHuffmanBits.
type countHeap []int

func (h countHeap) Len() int           { return len(h) }
func (h countHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h countHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *countHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *countHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// heapHuffmanBits is the textbook Huffman construction huffmanBits is held
// to: merge the two lightest trees until one is left, summing the merged
// weights.
func heapHuffmanBits(sample []byte) int {
	var hist [256]int
	for _, b := range sample {
		hist[b]++
	}
	h := &countHeap{}
	for _, c := range hist {
		if c > 0 {
			*h = append(*h, c)
		}
	}
	heap.Init(h)
	bits := 0
	for h.Len() > 1 {
		w := heap.Pop(h).(int) + heap.Pop(h).(int)
		bits += w
		heap.Push(h, w)
	}
	return bits
}

// TestHuffmanBitsMatchesHeap holds the two-queue estimator to the heap
// construction over random histograms of 1, 2, 255, 256 and in-between
// distinct symbols, with flat, skewed and tied counts.
func TestHuffmanBitsMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		distinct := []int{1, 2, 3, 255, 256, 1 + rng.Intn(256)}[trial%6]
		var sample []byte
		for _, s := range rng.Perm(256)[:distinct] {
			count := 1 + rng.Intn(64)
			switch trial % 3 {
			case 1: // skewed: a few symbols dominate
				count = 1 + int(rng.ExpFloat64()*float64(1+rng.Intn(2000)))
			case 2: // ties everywhere
				count = 1 << rng.Intn(4)
			}
			sample = append(sample, bytes.Repeat([]byte{byte(s)}, count)...)
		}
		if got, want := huffmanBits(sample), heapHuffmanBits(sample); got != want {
			t.Fatalf("trial %d (%d symbols, %d bytes): huffmanBits %d, heap reference %d", trial, distinct, len(sample), got, want)
		}
	}
	if got := huffmanBits(nil); got != 0 {
		t.Errorf("huffmanBits(nil) = %d, want 0", got)
	}
}

// fuzzPiece grows the fuzzer's seed into a piece of n bytes (at least the
// seed): past the seed, the seed repeats with the bits of noise flipped by
// a generator keyed by salt — noise 0 tiles the seed, 0xff is random bytes.
func fuzzPiece(seed []byte, n int, noise byte, salt uint64) []byte {
	if len(seed) == 0 {
		seed = []byte{0}
	}
	piece := append(make([]byte, 0, max(n, len(seed))), seed...)
	x := salt | 1
	for i := len(piece); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		piece = append(piece, seed[i%len(seed)]^byte(x)&noise)
	}
	return piece
}

// FuzzChunkFrame holds the frame to its contract over pieces either side of
// the probe: every piece round-trips, a frame is at most the piece plus its
// header, framing is deterministic, the frame is raw exactly when the probe
// refused flate or flate did not shrink the piece, and the estimate the
// probe reads is the heap construction's.
func FuzzChunkFrame(f *testing.F) {
	f.Add([]byte{}, uint32(0), byte(0), uint64(0))
	f.Add([]byte("qckpt"), uint32(600), byte(0x0f), uint64(7))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(2*chunkProbeBytes+1), byte(0xff), uint64(1))
	f.Add([]byte{0x3f, 0xf0}, uint32(64<<10), byte(0x07), uint64(25))
	f.Add([]byte{0}, uint32(64<<10), byte(0x1f), uint64(3))
	f.Fuzz(func(t *testing.T, seed []byte, size uint32, noise byte, salt uint64) {
		piece := fuzzPiece(seed, int(size%(64<<10+1)), noise, salt)
		frame, err := appendChunkFrame(nil, piece)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) > len(piece)+chunkFrameHeader {
			t.Fatalf("frame %d bytes for a %d-byte piece", len(frame), len(piece))
		}
		if again, _ := appendChunkFrame(nil, piece); !bytes.Equal(frame, again) {
			t.Fatal("framing not deterministic")
		}
		got, scratch, err := decodeChunkFrame(frame, len(piece))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, piece) {
			t.Fatal("round trip mismatch")
		}
		if scratch != nil {
			putScratch(scratch)
		}
		sample := piece[:min(len(piece), chunkProbeBytes)]
		comp, err := compressAppend(nil, piece)
		if err != nil {
			t.Fatal(err)
		}
		refused := len(piece) > 2*chunkProbeBytes && !worthCompressing(sample)
		if raw, want := frame[0] == chunkFrameRaw, refused || len(comp) >= len(piece); raw != want {
			t.Fatalf("raw=%v for a %d-byte piece, want %v (probe refused %v, flate %d bytes)", raw, len(piece), want, refused, len(comp))
		}
		if got, want := huffmanBits(sample), heapHuffmanBits(sample); got != want {
			t.Fatalf("huffmanBits %d, heap reference %d", got, want)
		}
	})
}

// BenchmarkChunkFrame frames one 64 KiB chunk of four kinds: float64s the
// probe stores raw, f32s it has stored raw since the order-0 code replaced
// the trial deflate, indices and zeros it passes to flate. bytes-written/op
// is the frame, so a change of decision shows in the committed JSON.
func BenchmarkChunkFrame(b *testing.B) {
	kinds := map[string][]byte{}
	for _, k := range chunkKinds() {
		kinds[k.name] = k.piece
	}
	for _, bc := range []struct{ name, kind string }{
		{"f64", "f64-normal"}, {"f32", "f32-normal"}, {"uint32", "uint32-indices"}, {"zeros", "zeros"},
	} {
		piece := kinds[bc.kind]
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]byte, 0, len(piece)+chunkFrameHeader+64)
			b.SetBytes(int64(len(piece)))
			b.ReportAllocs()
			var err error
			for i := 0; i < b.N; i++ {
				if dst, err = appendChunkFrame(dst[:0], piece); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(dst)), "bytes-written/op")
		})
	}
}

// TestEncodeLayoutSurvivesCollections: EncodePayload of a multi-MiB state
// allocates its payload and nothing else, even when collections come
// between calls, as they do about every other call at that size. A layout
// kept in a sync.Pool was gone after two of them and cost its slices anew.
// The count is the median call's: the runtime's own allocations land in
// the process-wide count now and then.
func TestEncodeLayoutSurvivesCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	s := sampleState()
	s.Params, s.BestParams = make([]float64, 5<<20/8), nil
	mallocs := make([]uint64, 9)
	for i := -1; i < len(mallocs); i++ { // the first call may make the layout
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := EncodePayload(s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 0 {
			mallocs[i] = after.Mallocs - before.Mallocs
		}
	}
	if slices.Sort(mallocs); mallocs[len(mallocs)/2] != 1 {
		t.Errorf("EncodePayload of a 5 MiB state with collections between calls: %v allocs, median want 1 (the payload)", mallocs)
	}
}

// TestPooledEncodeZeroAllocs locks in the headline property of the pooled
// codec: the synchronous encode stage — payload serialization, a save's
// layout, its diff against the previous payload and its patch of the
// payload from two saves back, the section CRCs sealed from the map over
// the previous payload's granule CRCs and the parameter check on it,
// delta encode (map-driven into a body from a free list it goes back to
// zeroed, and plain), chunk framing, snapshot-file assembly — allocates
// nothing at steady state when running over pooled capacity; nor does the
// save's payload identity, one dirty leaf re-hashed into the previous
// payload's root input by its map and then the root.
func TestPooledEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	states := seqStates(2)
	st := states[1]
	base, err := EncodePayload(states[0])
	if err != nil {
		t.Fatal(err)
	}
	payloadBuf := make([]byte, 0, len(base)+64)
	deltaBuf := make([]byte, 0, 16+len(base)+64)
	fileBuf := make([]byte, 0, headerSize+len(base)+96)
	h := Header{Kind: KindFull, PayloadHash: PayloadHash(base)}
	// An 8 KiB piece compresses outright; 64 KiB of float64s is probed and
	// framed raw.
	pieces := [][]byte{base[:min(len(base), 8<<10)], float64Piece(64<<10, rand.New(rand.NewSource(1)).NormFloat64)}
	frameBuf := make([]byte, 0, 64<<10+chunkFrameHeader+64)
	prev := float64Piece(3*leafBytes+100, rand.New(rand.NewSource(2)).NormFloat64)
	cur := bytes.Clone(prev)
	cur[leafBytes+7] ^= 1
	tree, _, _ := hashLeaves(nil, prev, dirtyMap{}, leafBytes)
	var dirty, leaves dirtyMap
	var zeros zeroBodies
	// A save's seal: 16 KiB of parameters, one of them moving back and
	// forth, patched into the payload from two saves back and sealed against
	// the last payload's granule CRCs.
	big := [2]*TrainingState{sampleState(), sampleState()}
	for _, s := range big {
		s.Params, s.BestParams = make([]float64, 2048), nil
	}
	big[1].Params[700] = 1
	var sp payloadSpans
	lag := sealState(big[0], nil)
	last := sealState(big[1], lag)
	run := func() {
		var err error
		payloadBuf, err = AppendPayload(payloadBuf[:0], st)
		if err != nil {
			t.Fatal(err)
		}
		sp.layout(big[0])
		sp.fill(lag, last, true)
		if _, err := checkParams(lag.b, sp.params, sp.params, lag.dirty); err != nil {
			t.Fatal(err)
		}
		lag, last, big[0], big[1] = last, lag, big[1], big[0]
		dirty.diff(payloadBuf, base, granuleBytes)
		body := zeros.get(deltaHeaderLen + len(payloadBuf))
		body.b = appendDelta(body.b, base, payloadBuf, dirty)
		body.dirty = dirtyMap{gran: dirty.gran, base: dirty.base, bits: append(body.dirty.bits, dirty.bits...)}
		body.release() // zeroed back onto the free list
		deltaBuf = AppendDelta(deltaBuf[:0], base, payloadBuf)
		for _, piece := range pieces {
			if frameBuf, err = appendChunkFrame(frameBuf[:0], piece); err != nil {
				t.Fatal(err)
			}
		}
		fileBuf, err = appendSnapshotFile(fileBuf[:0], h, deltaBuf)
		if err != nil {
			t.Fatal(err)
		}
		leaves.diff(cur, prev, granuleBytes)
		tree, _, _ = hashLeaves(tree, cur, leaves, leafBytes)
		prev, cur = cur, prev
	}
	run() // warm the flate pools and size every buffer
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("pooled encode stage: %v allocs/op, want 0", allocs)
	}
	if want, _ := EncodePayload(big[1]); !bytes.Equal(last.b, want) {
		t.Error("the patched payload is not EncodePayload's")
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
