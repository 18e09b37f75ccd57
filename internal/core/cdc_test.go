package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// cdcTestBlob returns n incompressible bytes from a fixed seed, so chunk
// and byte counts in these tests measure dedup, not flate.
func cdcTestBlob(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// blobState wraps a byte blob in a TrainingState so the manager's save
// path carries it; the Optimizer field is embedded verbatim in the
// payload, giving the test byte-level control over the body.
func blobState(step uint64, blob []byte) *TrainingState {
	s := NewTrainingState()
	s.Step = step
	s.Optimizer = blob
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	return s
}

func TestCDCCutpointBounds(t *testing.T) {
	p := cdcParamsFor(MinChunkBytes)
	data := cdcTestBlob(256<<10, 1)
	cuts := appendCutpoints(nil, data, p)
	if len(cuts) == 0 || cuts[len(cuts)-1] != len(data) {
		t.Fatalf("cutpoints do not cover the body: %v", cuts)
	}
	prev := 0
	for i, c := range cuts {
		size := c - prev
		if size <= 0 {
			t.Fatalf("cut %d not increasing: %v", i, cuts)
		}
		if size > p.maxSize {
			t.Errorf("chunk %d is %d bytes, above max %d", i, size, p.maxSize)
		}
		if i < len(cuts)-1 && size < p.minSize {
			t.Errorf("non-final chunk %d is %d bytes, below min %d", i, size, p.minSize)
		}
		prev = c
	}
	// Deterministic: a second pass cuts identically.
	if again := appendCutpoints(nil, data, p); !reflect.DeepEqual(cuts, again) {
		t.Error("cutpoints not deterministic across passes")
	}
	// The average should land near the target (loose 2x band: the gear
	// hash is seeded and fixed, so this cannot flake).
	avg := len(data) / len(cuts)
	if avg < p.normSize/2 || avg > p.normSize*2 {
		t.Errorf("average chunk %d bytes, target %d", avg, p.normSize)
	}
}

// TestCDCShiftResilience is the point of the chunker: inserting bytes near
// the front of a large state must re-address only the chunks overlapping
// the edit under CDC, while fixed boundaries re-address everything
// downstream. The acceptance bar is CDC writing at most half the bytes per
// shifted save; in practice it is far below that.
func TestCDCShiftResilience(t *testing.T) {
	const blobLen = 256 << 10
	base := cdcTestBlob(blobLen, 2)
	run := func(chunker Chunker) int64 {
		mem := storage.NewMem()
		m, err := NewManager(Options{
			Backend: mem, Strategy: StrategyFull,
			ChunkBytes: 8 << 10, Chunker: chunker, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		blob := append([]byte(nil), base...)
		if _, err := m.Save(blobState(0, blob)); err != nil {
			t.Fatal(err)
		}
		before := m.Stats().BytesWritten
		for step := uint64(1); step <= 4; step++ {
			// Insert 64 fresh bytes near the front: everything after the
			// insertion shifts.
			ins := cdcTestBlob(64, int64(100+step))
			blob = append(append(append([]byte(nil), blob[:128]...), ins...), blob[128:]...)
			if _, err := m.Save(blobState(step, blob)); err != nil {
				t.Fatal(err)
			}
		}
		wrote := m.Stats().BytesWritten - before
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		// Every save must stay bitwise-restorable whatever the chunker.
		got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Optimizer, blob) {
			t.Fatalf("chunker %v: restore not bitwise-identical", chunker)
		}
		return wrote
	}
	fixed := run(ChunkerFixed)
	cdc := run(ChunkerCDC)
	if cdc > fixed/2 {
		t.Errorf("CDC wrote %d bytes across shifted saves, fixed wrote %d; want <= half", cdc, fixed)
	}
}

// TestCDCIncrementalMatchesFullIngest is the correctness bar for boundary
// resynchronization: the incremental planner (prefix/suffix reuse plus
// resync) must produce exactly the chunk namespace a full re-chunk of
// every body would have produced, under mutations that shift, append and
// truncate — not just drift in place.
func TestCDCIncrementalMatchesFullIngest(t *testing.T) {
	const blobLen = 128 << 10
	blobs := [][]byte{cdcTestBlob(blobLen, 3)}
	mutate := func(b []byte, step int) []byte {
		switch step % 5 {
		case 0: // in-place dirty word
			out := append([]byte(nil), b...)
			out[len(out)/3] ^= 0xFF
			return out
		case 1: // insertion mid-body (shifts the tail)
			at := len(b) / 2
			ins := cdcTestBlob(100, int64(step))
			return append(append(append([]byte(nil), b[:at]...), ins...), b[at:]...)
		case 2: // front insertion (shifts everything)
			ins := cdcTestBlob(48, int64(step))
			return append(append([]byte(nil), ins...), b...)
		case 3: // append
			return append(append([]byte(nil), b...), cdcTestBlob(4096, int64(step))...)
		default: // truncate the tail
			return append([]byte(nil), b[:len(b)-2048]...)
		}
	}
	for step := 1; step <= 10; step++ {
		blobs = append(blobs, mutate(blobs[len(blobs)-1], step))
	}
	run := func(fullIngest bool) (*storage.Mem, Stats) {
		mem := storage.NewMem()
		m, err := NewManager(Options{
			Backend: mem, Strategy: StrategyFull,
			ChunkBytes: 8 << 10, Chunker: ChunkerCDC, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.fullIngest = fullIngest
		for i, blob := range blobs {
			if _, err := m.Save(blobState(uint64(i), blob)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Optimizer, blobs[len(blobs)-1]) {
			t.Fatal("restore not bitwise-identical")
		}
		return mem, m.Stats()
	}
	memFull, statsFull := run(true)
	memIncr, statsIncr := run(false)
	if a, b := chunkAddrs(t, memFull), chunkAddrs(t, memIncr); !reflect.DeepEqual(a, b) {
		t.Errorf("chunk namespaces diverge: full-ingest %d addrs, incremental %d", len(a), len(b))
	}
	if statsIncr.CleanChunks == 0 {
		t.Errorf("incremental CDC run recognized no clean chunks: %+v", statsIncr)
	}
	if statsFull.CleanChunks != 0 {
		t.Errorf("full-ingest run claims clean chunks: %+v", statsFull)
	}
}

// TestCDCAnchorLineageMatchesFullIngest is the per-kind base under the
// content-defined chunker: a delta-chained run whose anchors are three
// saves apart, with a save that grows the payload's tail between the first
// two anchors (so the second anchor is planned against a base of another
// length) and in-place drift between the next two (the aligned walk).
// Every anchor after the first must reuse chunks of the anchor before it,
// and the chunk namespace must be the one a full ingest computes.
func TestCDCAnchorLineageMatchesFullIngest(t *testing.T) {
	// One Step throughout: it sits in the payload's first bytes, and across
	// a length change only the common prefix and suffix of two bodies can
	// be reused.
	states := []*TrainingState{blobState(7, cdcTestBlob(128<<10, 5))} // anchor 0
	next := func(flipAt, grow int) {
		s := states[len(states)-1].Clone()
		s.Optimizer[flipAt] ^= 0xFF
		for i := 0; i < grow; i++ {
			s.LossHistory = append(s.LossHistory, float64(i))
		}
		states = append(states, s)
	}
	next(100<<10, 0)
	next(101<<10, 100) // the tail section grows by 800 bytes
	next(102<<10, 0)   // anchor 3: longer than anchor 0, shares its first 100 KiB
	next(2000, 0)
	next(3000, 0)
	next(70<<10, 0) // anchor 6: same length as anchor 3
	next(4000, 50)
	next(5000, 0)

	run := func(fullIngest bool) (*storage.Mem, []int) {
		mem := storage.NewMem()
		m, err := NewManager(Options{
			Backend: mem, Strategy: StrategyDelta, AnchorEvery: 3,
			ChunkBytes: 8 << 10, Chunker: ChunkerCDC, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		m.fullIngest = fullIngest
		var anchorClean []int
		for i, s := range states {
			before := m.Stats().CleanChunks
			res, err := m.Save(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind == KindFull {
				anchorClean = append(anchorClean, m.Stats().CleanChunks-before)
			}
			got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(s) {
				t.Fatalf("fullIngest=%v save %d: restore not bitwise-identical", fullIngest, i)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if ok, problems, err := VerifyBackend(mem); err != nil || len(problems) != 0 || ok != len(states) {
			t.Errorf("fullIngest=%v: verify ok=%d problems=%v err=%v", fullIngest, ok, problems, err)
		}
		return mem, anchorClean
	}
	memFull, cleanFull := run(true)
	memIncr, cleanIncr := run(false)
	if a, b := chunkAddrs(t, memFull), chunkAddrs(t, memIncr); !reflect.DeepEqual(a, b) {
		t.Errorf("chunk namespaces diverge: full-ingest %d addrs, incremental %d", len(a), len(b))
	}
	if !reflect.DeepEqual(cleanFull, []int{0, 0, 0}) {
		t.Errorf("full-ingest anchors claim clean chunks: %v", cleanFull)
	}
	if len(cleanIncr) != 3 || cleanIncr[0] != 0 || cleanIncr[1] == 0 || cleanIncr[2] == 0 {
		t.Errorf("clean chunks per anchor = %v, want none on the first and some on each later one", cleanIncr)
	}
}

// TestCDCMixedManifestHistory saves part of a history under fixed
// boundaries (CHUNKS2 manifests) and the rest — same backend, new manager
// incarnation — under CDC (CHUNKS3). Every snapshot must stay restorable,
// retention GC must account chunks across both formats, and summaries must
// identify each manifest's chunker.
func TestCDCMixedManifestHistory(t *testing.T) {
	mem := storage.NewMem()
	blob := cdcTestBlob(64<<10, 4)
	open := func(chunker Chunker) *Manager {
		m, err := NewManager(Options{
			Backend: mem, Strategy: StrategyFull,
			ChunkBytes: 8 << 10, Chunker: chunker, Retain: 4, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open(ChunkerFixed)
	for step := uint64(0); step < 3; step++ {
		blob[int(step)*100] ^= 0xFF
		if _, err := m.Save(blobState(step, blob)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m = open(ChunkerCDC)
	for step := uint64(3); step < 6; step++ {
		blob[int(step)*100] ^= 0xFF
		if _, err := m.Save(blobState(step, blob)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Both manifest generations coexist (Retain 4 has already GC'd the two
	// oldest fixed-boundary snapshots — retention walked the mixed history
	// live); each survivor names its chunker.
	keys, err := mem.List(snapshotKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	var v2, v3 int
	for _, k := range keys {
		data, err := mem.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		h, body, err := DecodeSnapshotFile(data)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Kind.Chunked() {
			t.Fatalf("snapshot %s is not chunked", k)
		}
		sum, err := SummarizeChunkManifest(body)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Chunker == "" {
			v2++
		} else {
			if sum.Chunker != cdcGearID || sum.AvgSize != 8<<10 {
				t.Errorf("snapshot %s summary %+v, want %s avg %d", k, sum, cdcGearID, 8<<10)
			}
			v3++
		}
	}
	if v2 != 1 || v3 != 3 {
		t.Fatalf("manifest generations: %d fixed + %d cdc, want 1 + 3", v2, v3)
	}

	// Every snapshot restores through the format-agnostic path, and the
	// newest is bitwise-identical to the last saved blob.
	if ok, problems, err := VerifyBackend(mem); err != nil || len(problems) != 0 || ok != 4 {
		t.Fatalf("verify mixed history: ok=%d problems=%v err=%v", ok, problems, err)
	}
	got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Optimizer, blob) {
		t.Fatal("newest mixed-history restore not bitwise-identical")
	}

	// GC across the mixed history: collect orphans, then verify every
	// surviving snapshot still restores (the keep-set must span both
	// manifest formats).
	if _, _, err := CollectOrphanChunks(mem); err != nil {
		t.Fatal(err)
	}
	if ok, problems, err := VerifyBackend(mem); err != nil || len(problems) != 0 || ok != 4 {
		t.Fatalf("verify after GC: ok=%d problems=%v err=%v", ok, problems, err)
	}
}

func TestChunkingOptionValidation(t *testing.T) {
	mem := storage.NewMem()
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"below-floor", Options{Backend: mem, ChunkBytes: 256}, "outside"},
		{"above-ceiling", Options{Backend: mem, ChunkBytes: 128 << 20}, "outside"},
		{"negative", Options{Backend: mem, ChunkBytes: -1}, "negative"},
		{"cdc-without-size", Options{Backend: mem, Chunker: ChunkerCDC}, "requires ChunkBytes"},
		{"unknown-chunker", Options{Backend: mem, ChunkBytes: 8 << 10, Chunker: Chunker(99)}, "unknown chunker"},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewManager err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The same gate guards service job admission.
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.OpenJob("j", Options{ChunkBytes: 256}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("OpenJob accepted sub-minimum chunk size (err=%v)", err)
	}
	// Valid extremes are accepted.
	for _, cb := range []int{MinChunkBytes, MaxChunkBytes} {
		m, err := NewManager(Options{Backend: storage.NewMem(), ChunkBytes: cb, Chunker: ChunkerCDC})
		if err != nil {
			t.Errorf("ChunkBytes %d rejected: %v", cb, err)
			continue
		}
		m.Close()
	}
}

// fuzzEdit derives one edit of body from sel: a flipped byte, an insert or
// delete of 1–128 bytes, an append of as many, or a truncation.
func fuzzEdit(body []byte, sel uint16) []byte {
	at, n := int(sel>>3)%(len(body)+1), 1+int(sel>>9)
	out, fill := bytes.Clone(body), bytes.Repeat([]byte{byte(sel)}, n)
	switch sel % 5 {
	case 0:
		if at < len(out) {
			out[at] ^= 0xFF
		}
	case 1:
		out = slices.Insert(out, at, fill...)
	case 2:
		out = slices.Delete(out, at, min(at+n, len(out)))
	case 3:
		out = append(out, fill...)
	default:
		out = out[:at]
	}
	return out
}

// offsetCompareReuse is the fixed-size planner plan replaced, kept as the
// reference: chunk i of body reuses the base's address i when the size-byte
// slices at offset i·size of both bodies are equal, lengths included.
func offsetCompareReuse(body, base []byte, size int, addrs []string) []string {
	reuse := make([]string, (len(body)+size-1)/size)
	for i := range reuse {
		start := i * size
		if start >= len(base) {
			break
		}
		if bytes.Equal(body[start:min(start+size, len(body))], base[start:min(start+size, len(base))]) {
			reuse[i] = addrs[i]
		}
	}
	return reuse
}

// checkPlan plans edited against base, committed as its lineage's body
// under rule p with every chunk's bytes as its address, and holds the plan
// to a full re-chunk: the same cuts, every reused address naming the bytes
// it stands for, and under a fixed rule at least the offset compare's
// reuse (exactly it when the lengths are equal).
func checkPlan(t *testing.T, p cdcParams, base, edited []byte) {
	baseCuts := appendCutpoints(nil, base, p)
	prev := &chunkBase{body: &refBuf{b: base}, cuts: baseCuts}
	for _, piece := range cdcPieces(base, baseCuts) {
		prev.addrs = append(prev.addrs, string(piece))
	}
	reuse, cuts := (&Manager{}).plan(edited, p, prev, nil)
	if want := appendCutpoints(nil, edited, p); !slices.Equal(cuts, want) || len(reuse) != len(cuts) {
		t.Fatalf("rule %v: plan cuts %v (%d reuse entries), a full re-chunk cuts %v", p, cuts, len(reuse), want)
	}
	for i, piece := range cdcPieces(edited, cuts) {
		if reuse[i] != "" && reuse[i] != string(piece) {
			t.Fatalf("rule %v: chunk %d reuses an address of other bytes", p, i)
		}
	}
	if !p.fixed() {
		return
	}
	for i, old := range offsetCompareReuse(edited, base, p.maxSize, prev.addrs) {
		if old != "" && reuse[i] == "" || len(edited) == len(base) && (old == "") != (reuse[i] == "") {
			t.Fatalf("chunk %d: plan reuses %t, the offset compare %t", i, reuse[i] != "", old != "")
		}
	}
}

// FuzzCDC fuzzes the chunker's core invariants: determinism, coverage,
// size bounds, and prefix stability (cuts are decided left-to-right by
// content, so extending the input never moves an interior cutpoint). It
// also edits the input per split and plans the edit against the input
// under the fixed and the content-defined rule at one size (checkPlan),
// and holds the payload-identity leaves the edit reuses from the input to
// leaves hashed from scratch, under 64-byte leaves (checkLeaves).
func FuzzCDC(f *testing.F) {
	f.Add([]byte("hello content defined chunking"), uint16(7))
	f.Add(bytes.Repeat([]byte{0}, 1024), uint16(400))
	f.Add(cdcTestBlob(4096, 5), uint16(1000))
	f.Add([]byte{}, uint16(0))
	// Full-size final chunks (64 bytes fixed, 256 content-defined) followed
	// by an append (split%5 == 3) of 1 and of 64 bytes.
	f.Add(cdcTestBlob(128, 7), uint16(3))
	f.Add(bytes.Repeat([]byte{0}, 512), uint16(63<<9+2))
	// A truncation (split%5 == 4) to 100 bytes, inside the second 64-byte
	// leaf: its first 36 bytes are unchanged, its span is not.
	f.Add(cdcTestBlob(128, 7), uint16(100<<3+4))
	p := cdcParamsFor(64) // min 16 / norm 64 / max 256: tiny inputs hit every branch
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		edited := fuzzEdit(data, split)
		checkPlan(t, fixedParams(64), data, edited)
		checkPlan(t, p, data, edited)
		checkLeaves(t, data, edited, 64)
		cuts := appendCutpoints(nil, data, p)
		if len(data) == 0 {
			if len(cuts) != 0 {
				t.Fatalf("empty body produced cuts %v", cuts)
			}
			return
		}
		if cuts[len(cuts)-1] != len(data) {
			t.Fatalf("cuts %v do not cover %d bytes", cuts, len(data))
		}
		prev := 0
		for i, c := range cuts {
			size := c - prev
			if size <= 0 || size > p.maxSize {
				t.Fatalf("chunk %d size %d outside (0, %d]", i, size, p.maxSize)
			}
			if i < len(cuts)-1 && size < p.minSize {
				t.Fatalf("non-final chunk %d size %d below min %d", i, size, p.minSize)
			}
			prev = c
		}
		if again := appendCutpoints(nil, data, p); !reflect.DeepEqual(cuts, again) {
			t.Fatal("cutpoints not deterministic")
		}
		// Prefix stability: chunking a prefix reproduces the full body's
		// leading cuts, except the prefix's own final (end-of-data) cut.
		pre := int(split) % (len(data) + 1)
		pcuts := appendCutpoints(nil, data[:pre], p)
		for i := 0; i < len(pcuts)-1; i++ {
			if i >= len(cuts) || pcuts[i] != cuts[i] {
				t.Fatalf("prefix cut %d = %d diverges from full-body cuts %v", i, pcuts[i], cuts)
			}
		}
	})
}

// BenchmarkCDCCutpoints measures raw chunking throughput: one shift-add
// and table lookup per byte, minus the sub-minimum skip.
func BenchmarkCDCCutpoints(b *testing.B) {
	body := cdcTestBlob(8<<20, 6)
	p := cdcParamsFor(256 << 10)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	var cuts []int
	for i := 0; i < b.N; i++ {
		cuts = appendCutpoints(cuts[:0], body, p)
	}
}
