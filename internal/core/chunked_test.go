package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/storage"
)

// chunkedOpts is the standard chunked-pipeline configuration under test:
// a small chunk size so even test states span many chunks, and a worker
// pool (the acceptance bar is workers ≥ 2).
func chunkedOpts(o Options) Options {
	o.ChunkBytes = MinChunkBytes
	o.Workers = 4
	return o
}

// bigSeqStates yields n drifting states whose payloads span many chunks at
// the test chunk size, so chunk-level dedup has something to find.
func bigSeqStates(n int) []*TrainingState {
	out := make([]*TrainingState, n)
	s := NewTrainingState()
	s.Params = make([]float64, 2048)
	for i := range s.Params {
		s.Params[i] = float64(i) * 0.137
	}
	s.Optimizer = make([]byte, 16*2048)
	s.RNG = make([]byte, 200)
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	for i := 0; i < n; i++ {
		s = s.Clone()
		s.Step = uint64(i)
		s.Params[i%len(s.Params)] += 1e-9 // a few low-order bits move per step
		s.LossHistory = append(s.LossHistory, 1.0/float64(i+1))
		out[i] = s
	}
	return out
}

func TestManagerChunkedSaveRecoverLocal(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(chunkedOpts(Options{Dir: dir, Strategy: StrategyDelta, AnchorEvery: 4}))
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(10)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[9]) {
		t.Errorf("chunked restore mismatch")
	}
	if report.ChainLen < 2 {
		t.Errorf("expected delta chain, got chain length %d", report.ChainLen)
	}
	st := m.Stats()
	if st.Chunks == 0 {
		t.Errorf("no chunks recorded: %+v", st)
	}
	// Slowly drifting training state must dedup between snapshots.
	if st.DedupHits == 0 {
		t.Errorf("no dedup hits across %d snapshots: %+v", st.Snapshots, st)
	}
	// The on-disk snapshot files are small manifests now; bodies live in
	// the chunk namespace.
	entries, _ := os.ReadDir(filepath.Join(dir, ChunkPrefix))
	if len(entries) == 0 {
		t.Errorf("chunk namespace empty")
	}
}

func TestManagerChunkedAsyncWorkersMemBackend(t *testing.T) {
	mem := storage.NewMem()
	m, err := NewManager(chunkedOpts(Options{
		Backend: mem, Strategy: StrategyDelta, AnchorEvery: 4, Async: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(12)
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Write != 0 || res.FileBytes != 0 {
			t.Errorf("async save reported synchronous write cost")
		}
	}
	if err := m.Barrier(); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[11]) {
		t.Errorf("async chunked restore mismatch")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Snapshots != 12 || st.BytesWritten == 0 || st.Chunks == 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestManagerChunkedCrashFallback corrupts the chunked path newest-first
// and asserts recovery falls back to an older intact snapshot rather than
// returning garbage — the chunked analogue of the monolithic fault tests.
func TestManagerChunkedCrashFallback(t *testing.T) {
	t.Run("corrupt-manifest", func(t *testing.T) {
		dir := t.TempDir()
		states := writeChunkedRun(t, dir, 6)
		// Truncate the newest manifest file (torn write by a non-atomic
		// foreign tool).
		newest := newestSnapshotPath(t, dir)
		raw, _ := os.ReadFile(newest)
		if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		got, report, err := loadDir(t, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(states[4]) {
			t.Errorf("fallback restored step %d, want 4", got.Step)
		}
		if len(report.Skipped) == 0 {
			t.Errorf("corrupt manifest not reported")
		}
	})

	t.Run("missing-chunk", func(t *testing.T) {
		dir := t.TempDir()
		states := writeChunkedRun(t, dir, 6)
		// Delete a chunk referenced only by the newest snapshot: its
		// delta body is unique, older snapshots must stay restorable.
		newest := newestSnapshotPath(t, dir)
		_, manifest, err := ReadSnapshotFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		minfo, err := decodeChunkManifest(manifest)
		if err != nil {
			t.Fatal(err)
		}
		addrs := minfo.addrs
		victim := addrs[len(addrs)-1]
		if err := os.Remove(filepath.Join(dir, ChunkPrefix, victim[:2], victim)); err != nil {
			t.Fatal(err)
		}
		got, _, err := loadDir(t, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		match := false
		for _, s := range states {
			if got.Equal(s) {
				match = true
			}
		}
		if !match {
			t.Errorf("recovery returned a never-saved state (step %d)", got.Step)
		}
		if got.Step == states[5].Step {
			t.Errorf("newest snapshot restored despite missing chunk")
		}
	})

	t.Run("corrupt-chunk", func(t *testing.T) {
		dir := t.TempDir()
		states := writeChunkedRun(t, dir, 6)
		newest := newestSnapshotPath(t, dir)
		_, manifest, err := ReadSnapshotFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		minfo, err := decodeChunkManifest(manifest)
		if err != nil {
			t.Fatal(err)
		}
		addrs := minfo.addrs
		victim := filepath.Join(dir, ChunkPrefix, addrs[0][:2], addrs[0])
		raw, _ := os.ReadFile(victim)
		raw[len(raw)/2] ^= 0xFF
		if err := os.WriteFile(victim, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := loadDir(t, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		match := false
		for _, s := range states {
			if got.Equal(s) {
				match = true
			}
		}
		if !match {
			t.Errorf("recovery returned a never-saved state after chunk corruption")
		}
	})
}

// writeChunkedRun persists n evolving states through the chunked pipeline
// and returns them.
func writeChunkedRun(t *testing.T, dir string, n int) []*TrainingState {
	t.Helper()
	m, err := NewManager(chunkedOpts(Options{Dir: dir, Strategy: StrategyDelta, AnchorEvery: 3}))
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(n)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// newestSnapshotPath returns the path of the highest-sequence snapshot.
func newestSnapshotPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestSeq uint64
	for _, e := range entries {
		if seq, _, ok := parseSnapshotName(e.Name()); ok && (best == "" || seq > bestSeq) {
			best, bestSeq = filepath.Join(dir, e.Name()), seq
		}
	}
	if best == "" {
		t.Fatal("no snapshots found")
	}
	return best
}

// TestManagerChunkedRetentionCollectsChunks checks that retention GC
// removes both old manifests and the chunks only they referenced, while
// every surviving snapshot stays fully restorable.
func TestManagerChunkedRetentionCollectsChunks(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(chunkedOpts(Options{
		Dir: dir, Strategy: StrategyDelta, AnchorEvery: 2, Retain: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(12)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// No orphans: every stored chunk is referenced by a live manifest.
	keep, err := chunkReferences(b)
	if err != nil {
		t.Fatal(err)
	}
	cs := storage.NewChunkStore(storage.WithPrefix(b, ChunkPrefix))
	addrs, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !keep[a] {
			t.Errorf("orphan chunk %s survived retention GC", a[:12])
		}
	}
	// Everything remaining verifies, and the newest state restores.
	ok, problems, err := VerifyBackend(dirStore(t, dir))
	if err != nil || len(problems) > 0 {
		t.Fatalf("verify after retention: ok=%d problems=%v err=%v", ok, problems, err)
	}
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[11]) {
		t.Errorf("retention broke newest snapshot")
	}
}

// TestManagerChunkedRestartContinues reopens a chunked directory and keeps
// saving; dedup must pick up against chunks from the previous incarnation.
func TestManagerChunkedRestartContinues(t *testing.T) {
	dir := t.TempDir()
	states := writeChunkedRun(t, dir, 4)
	m, err := NewManager(chunkedOpts(Options{Dir: dir, Strategy: StrategyDelta, AnchorEvery: 3}))
	if err != nil {
		t.Fatal(err)
	}
	next := states[3].Clone()
	next.Step = 100
	res, err := m.Save(next)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 4 {
		t.Errorf("restart seq = %d, want 4", res.Seq)
	}
	if res.Kind != KindFull {
		t.Errorf("restart first save kind = %s, want full anchor", res.Kind)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 100 {
		t.Errorf("restored step %d after restart", got.Step)
	}
}

// TestManagerChunkedTierBackend runs the pipeline against a
// latency-modeled object-store tier and checks the model billed the
// traffic.
func TestManagerChunkedTierBackend(t *testing.T) {
	tier := storage.NewTier(storage.NewMem(), storage.DeviceObject)
	m, err := NewManager(chunkedOpts(Options{Backend: tier, Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(3)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.Modeled == 0 || st.BytesWritten == 0 {
		t.Errorf("tier did not bill the pipeline: %+v", st)
	}
	got, _, err := LoadLatestBackendOptions(tier, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[2]) {
		t.Errorf("tier restore mismatch")
	}
}

func TestChunkManifestRoundTrip(t *testing.T) {
	addrs := []string{
		strings.Repeat("ab", 32),
		strings.Repeat("cd", 32),
	}
	m := appendChunkManifest(nil, 12345, cdcParams{}, addrs)
	info, err := decodeChunkManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if info.rawLen != 12345 || len(info.addrs) != 2 || info.addrs[0] != addrs[0] || info.addrs[1] != addrs[1] {
		t.Errorf("round trip: %d %v", info.rawLen, info.addrs)
	}
	if info.cdc {
		t.Errorf("fixed-boundary manifest decoded as content-defined")
	}
	// A well-formed CHUNKS1 manifest (bare-flate chunks; only PRs 1–3 wrote
	// it) is an unknown magic like any other.
	if _, err := decodeChunkManifest(legacyManifest(m)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("CHUNKS1 manifest: err %v, want ErrCorrupt", err)
	}
	// Version 3 manifests carry the chunker parameter line.
	p := cdcParamsFor(8 << 10)
	v3 := appendChunkManifest(nil, 999, p, addrs)
	info, err = decodeChunkManifest(v3)
	if err != nil || info.rawLen != 999 || len(info.addrs) != 2 || !info.cdc {
		t.Fatalf("v3 manifest: %+v err=%v", info, err)
	}
	if info.chunker != cdcGearID || info.params.minSize != p.minSize ||
		info.params.normSize != p.normSize || info.params.maxSize != p.maxSize {
		t.Errorf("v3 chunker params: %+v, want %v", info, p)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("garbage"),
		[]byte("QCKPT-CHUNKS2\n-1\n"),
		[]byte("QCKPT-CHUNKS2\n10\nshortaddr\n"),
		[]byte("QCKPT-CHUNKS3\n10\n"), // missing chunker line
		[]byte("QCKPT-CHUNKS3\n10\ngear1 2048 8192\n"),       // short chunker line
		[]byte("QCKPT-CHUNKS3\n10\ngear1 8192 2048 32768\n"), // min > avg
		[]byte("QCKPT-CHUNKS3\n10\ngear1 0 8192 32768\n"),    // non-positive bound
		[]byte("QCKPT-CHUNKS3\n10\ngear1 a b c\n"),           // non-numeric bounds
	} {
		if _, err := decodeChunkManifest(bad); err == nil {
			t.Errorf("decodeChunkManifest(%q) accepted", bad)
		}
	}
}

// FuzzDecodeChunkManifest holds the manifest parser — fed by whatever a
// snapshot object's body inflates to — to its contract: it never panics,
// it fails only with ErrCorrupt, what it accepts names whole addresses and
// a body length its chunks could hold (restore preallocates rawLen bytes on
// the manifest's word), and a CHUNKS1 magic is never accepted.
func FuzzDecodeChunkManifest(f *testing.F) {
	addrs := []string{strings.Repeat("ab", 32), strings.Repeat("cd", 32)}
	v2 := appendChunkManifest(nil, 12345, cdcParams{}, addrs)
	f.Add(v2)
	f.Add(appendChunkManifest(nil, 999, cdcParamsFor(8<<10), addrs))
	f.Add([]byte("QCKPT-CHUNKS1\n77\n"))
	f.Add(legacyManifest(v2))
	f.Add(appendChunkManifest(nil, math.MaxInt, cdcParams{}, addrs)) // the hostile rawLen of TestHostileManifestLengthIsSkipped
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := decodeChunkManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeChunkManifest(%q) failed with %v, want ErrCorrupt", data, err)
			}
			return
		}
		if bytes.HasPrefix(data, []byte("QCKPT-CHUNKS1")) {
			t.Fatalf("decodeChunkManifest(%q) accepted a CHUNKS1 manifest", data)
		}
		for _, a := range info.addrs {
			if len(a) != 64 {
				t.Fatalf("decodeChunkManifest(%q) accepted address %q", data, a)
			}
		}
		if info.rawLen < 0 || int64(info.rawLen) > int64(len(info.addrs))*MaxChunkBytes {
			t.Fatalf("decodeChunkManifest(%q) accepted %d bytes in %d chunks", data, info.rawLen, len(info.addrs))
		}
	})
}

// referenceDecodeChunkManifest is the parser decodeChunkManifest replaced: the
// text split into a slice of lines, the addresses appended one by one.
func referenceDecodeChunkManifest(data []byte) (chunkManifestInfo, error) {
	var info chunkManifestInfo
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 {
		return info, fmt.Errorf("%w: bad chunk manifest header", ErrCorrupt)
	}
	switch lines[0] {
	case chunkManifestMagic:
	case chunkManifestMagicV3:
		info.cdc = true
	default:
		return info, fmt.Errorf("%w: bad chunk manifest header", ErrCorrupt)
	}
	rawLen, err := strconv.Atoi(lines[1])
	if err != nil || rawLen < 0 {
		return info, fmt.Errorf("%w: bad chunk manifest length %q", ErrCorrupt, lines[1])
	}
	info.rawLen = rawLen
	rest := lines[2:]
	if info.cdc {
		if len(rest) == 0 {
			return info, fmt.Errorf("%w: CHUNKS3 manifest missing chunker line", ErrCorrupt)
		}
		f := strings.Fields(rest[0])
		if len(f) != 4 {
			return info, fmt.Errorf("%w: bad chunker line %q", ErrCorrupt, rest[0])
		}
		info.chunker = f[0]
		sizes := [3]int{}
		for i, s := range f[1:] {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				return info, fmt.Errorf("%w: bad chunker line %q", ErrCorrupt, rest[0])
			}
			sizes[i] = v
		}
		if sizes[0] > sizes[1] || sizes[1] > sizes[2] {
			return info, fmt.Errorf("%w: bad chunker bounds %q", ErrCorrupt, rest[0])
		}
		info.params = cdcParams{minSize: sizes[0], normSize: sizes[1], maxSize: sizes[2]}
		rest = rest[1:]
	}
	for _, line := range rest {
		if line == "" {
			continue
		}
		if len(line) != 64 {
			return info, fmt.Errorf("%w: malformed chunk address %q", ErrCorrupt, line)
		}
		info.addrs = append(info.addrs, line)
	}
	if int64(rawLen) > int64(len(info.addrs))*MaxChunkBytes {
		return info, fmt.Errorf("%w: chunk manifest claims %d bytes in %d chunks", ErrCorrupt, rawLen, len(info.addrs))
	}
	return info, nil
}

// TestDecodeChunkManifestMatchesReference: parsing in place changed what a
// parse allocates and nothing else. Sound manifests of both versions, every
// truncation of them and a few thousand single-byte edits (a newline moved,
// a digit turned into a letter, an address a byte short) get the same
// manifest or the same error from both parsers, and a sound one costs the
// copy of its text, its address slice and — CHUNKS3 — the chunker's fields.
func TestDecodeChunkManifestMatchesReference(t *testing.T) {
	var addrs []string
	for i := 0; i < 40; i++ {
		addrs = append(addrs, storage.Hash([]byte{byte(i % 7)})) // repeats, as a delta body has
	}
	seeds := [][]byte{
		appendChunkManifest(nil, 12345, cdcParams{}, addrs),
		appendChunkManifest(nil, 999, cdcParamsFor(8<<10), addrs),
		appendChunkManifest(nil, 0, cdcParams{}, nil),
		appendChunkManifest(nil, 0, cdcParamsFor(8<<10), nil),
		[]byte(chunkManifestMagic), []byte(chunkManifestMagicV3 + "\n7"), []byte(chunkManifestMagic + "\n0\n\n\n"), nil,
	}
	same := func(data []byte) {
		t.Helper()
		got, gotErr := decodeChunkManifest(data)
		want, wantErr := referenceDecodeChunkManifest(data)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeChunkManifest(%q): err %v, the reference's %v", data, gotErr, wantErr)
		}
		if gotErr == nil && (got.rawLen != want.rawLen || got.cdc != want.cdc || got.chunker != want.chunker || got.params != want.params || !slices.Equal(got.addrs, want.addrs)) {
			t.Fatalf("decodeChunkManifest(%q) = %+v, the reference's %+v", data, got, want)
		}
	}
	r := rng.New(24)
	for _, seed := range seeds {
		for cut := 0; cut <= len(seed); cut++ {
			same(seed[:cut])
		}
		for i := 0; i < 2000 && len(seed) > 0; i++ {
			edited := bytes.Clone(seed)
			const edits = "\n\n 0a9x-"
			edited[r.Intn(len(edited))] = edits[r.Intn(len(edits))]
			same(edited)
		}
	}
	for i, wantAllocs := range []float64{2, 3} {
		if got := testing.AllocsPerRun(20, func() { decodeChunkManifest(seeds[i]) }); got > wantAllocs {
			t.Errorf("manifest %d: %v allocs per parse, want at most %v", i, got, wantAllocs)
		}
	}
}

func TestManagerRejectsNegativeChunkBytes(t *testing.T) {
	if _, err := NewManager(Options{Dir: t.TempDir(), ChunkBytes: -1}); err == nil {
		t.Errorf("negative chunk size accepted")
	}
}
