package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
)

// dirStore opens a checkpoint directory as the backend the entry points take.
func dirStore(t testing.TB, dir string) storage.Backend {
	t.Helper()
	b, err := DirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// loadDir restores the newest usable snapshot in a checkpoint directory.
func loadDir(t testing.TB, dir string, live *Meta) (*TrainingState, LoadReport, error) {
	t.Helper()
	return LoadLatestBackendOptions(dirStore(t, dir), live, RestoreOptions{})
}

// seqStates yields n states that evolve like a training run: params drift,
// loss history grows, step advances.
func seqStates(n int) []*TrainingState {
	out := make([]*TrainingState, n)
	s := sampleState()
	for i := 0; i < n; i++ {
		s = s.Clone()
		s.Step = uint64(i)
		for p := range s.Params {
			s.Params[p] += 0.001 * float64(i%3)
		}
		s.LossHistory = append(s.LossHistory, 1.0/float64(i+1))
		out[i] = s
	}
	return out
}

func TestManagerSaveLoadFull(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	states := seqStates(5)
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != KindFull {
			t.Errorf("full strategy wrote %v", res.Kind)
		}
		if res.FileBytes <= 0 {
			t.Errorf("no bytes reported")
		}
	}
	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[4]) {
		t.Errorf("restored state != last saved")
	}
	if report.ChainLen != 1 {
		t.Errorf("full snapshot chain length %d", report.ChainLen)
	}
}

func TestManagerDeltaChainRestores(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	states := seqStates(10)
	kinds := make([]SnapshotKind, 0, 10)
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, res.Kind)
	}
	// Pattern with AnchorEvery=4: F D D D F D D D F D.
	want := []SnapshotKind{KindFull, KindDelta, KindDelta, KindDelta, KindFull, KindDelta, KindDelta, KindDelta, KindFull, KindDelta}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("snapshot %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[9]) {
		t.Errorf("delta-chain restore mismatch")
	}
	if report.ChainLen != 2 { // seq 9 delta + seq 8 anchor
		t.Errorf("chain length = %d, want 2", report.ChainLen)
	}
}

func TestManagerDeltaSmallerThanFull(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 100})
	defer m.Close()

	// Large state so compression framing doesn't dominate.
	s := sampleState()
	s.Params = make([]float64, 2048)
	for i := range s.Params {
		s.Params[i] = float64(i) * 0.7713
	}
	s.BestParams = append([]float64{}, s.Params...)
	res0, err := m.Save(s)
	if err != nil {
		t.Fatal(err)
	}
	s2 := s.Clone()
	s2.Step++
	s2.Params[17] += 1e-6
	res1, err := m.Save(s2)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FileBytes*5 > res0.FileBytes {
		t.Errorf("delta %dB not ≪ full %dB", res1.FileBytes, res0.FileBytes)
	}
}

func TestManagerRecoversFromCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	states := seqStates(3)
	var lastPath string
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		lastPath = filepath.Join(dir, res.Path)
	}
	m.Close()

	// Corrupt the newest snapshot.
	raw, _ := os.ReadFile(lastPath)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(lastPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[1]) {
		t.Errorf("fallback restored wrong state (step %d)", got.Step)
	}
	if len(report.Skipped) == 0 {
		t.Errorf("corrupt snapshot not reported as skipped")
	}
}

func TestManagerRecoversFromBrokenChain(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 100})
	states := seqStates(6)
	var paths []string
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, res.Path))
	}
	m.Close()

	// Delete a middle delta: snapshots after it are unrecoverable, so
	// recovery must fall back to the snapshot just before the hole.
	if err := os.Remove(paths[3]); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[2]) {
		t.Errorf("broken-chain fallback restored step %d, want 2", got.Step)
	}
}

func TestManagerEmptyDir(t *testing.T) {
	if _, _, err := loadDir(t, t.TempDir(), nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestManagerMetaValidationOnLoad(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	s := sampleState()
	if _, err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	m.Close()

	wrong := s.Meta
	wrong.CircuitFP = "a-different-ansatz"
	if _, _, err := loadDir(t, dir, &wrong); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("incompatible snapshot restored: %v", err)
	}
	// Matching meta loads fine.
	live := s.Meta
	if _, _, err := loadDir(t, dir, &live); err != nil {
		t.Errorf("compatible snapshot rejected: %v", err)
	}
}

func TestManagerRetention(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 3, Retain: 2})
	states := seqStates(12)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	// 12 saves with anchors every 3: anchors at seq 0,3,6,9. Retain 2 →
	// cutoff at seq 6; files 0–5 deleted, 6–11 kept.
	if len(names) != 6 {
		t.Fatalf("retention kept %d files: %v", len(names), names)
	}
	// Latest still restores.
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[11]) {
		t.Errorf("post-GC restore mismatch")
	}
}

func TestManagerAsync(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(9)
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Write != 0 {
			t.Errorf("async save reported synchronous write time")
		}
	}
	if err := m.Barrier(); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[8]) {
		t.Errorf("async restore mismatch")
	}
	st := m.Stats()
	if st.Snapshots != 9 || st.BytesWritten == 0 {
		t.Errorf("stats wrong: %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Save after close fails.
	if _, err := m.Save(states[0]); err == nil {
		t.Errorf("save after close succeeded")
	}
}

func TestManagerAsyncStateMutationSafe(t *testing.T) {
	// The caller may mutate the state object right after Save returns;
	// the written snapshot must reflect the state at Save time. Manager
	// encodes synchronously, so this must hold.
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Async: true})
	s := sampleState()
	if _, err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	s.Params[0] = 424242 // mutate immediately
	if err := m.Barrier(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params[0] == 424242 {
		t.Errorf("snapshot captured post-Save mutation")
	}
}

func TestManagerStatsAccumulate(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 2})
	defer m.Close()
	for _, s := range seqStates(4) {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Snapshots != 4 || st.FullCount != 2 || st.DeltaCount != 2 {
		t.Errorf("stats: %+v", st)
	}
	if st.BytesWritten <= 0 || st.Cost.Encode <= 0 {
		t.Errorf("timings/bytes not tracked: %+v", st)
	}
}

func TestManagerOptionsValidation(t *testing.T) {
	if _, err := NewManager(Options{}); err == nil {
		t.Errorf("empty dir accepted")
	}
	if _, err := NewManager(Options{Backend: dirStore(t, t.TempDir()), Retain: -1}); err == nil {
		t.Errorf("negative retention accepted")
	}
}

func TestInspectSnapshotAndVerifyBackend(t *testing.T) {
	dir := t.TempDir()
	b := dirStore(t, dir)
	m, _ := NewManager(Options{Backend: b, Strategy: StrategyDelta, AnchorEvery: 3})
	states := seqStates(5)
	var keys []string
	for _, s := range states {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, res.Path)
	}
	m.Close()

	for _, key := range keys {
		if _, err := InspectSnapshot(b, key); err != nil {
			t.Errorf("inspect %s: %v", key, err)
		}
	}
	ok, problems, err := VerifyBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	if ok != 5 || len(problems) != 0 {
		t.Errorf("VerifyBackend: ok=%d problems=%v", ok, problems)
	}

	// Corrupt one file: VerifyBackend reports it, InspectSnapshot fails.
	p := filepath.Join(dir, keys[2])
	raw, _ := os.ReadFile(p)
	raw[len(raw)-5] ^= 1
	os.WriteFile(p, raw, 0o644)
	if _, err := InspectSnapshot(b, keys[2]); err == nil {
		t.Errorf("corrupt file verified")
	}
	_, problems, _ = VerifyBackend(b)
	if len(problems) == 0 {
		t.Errorf("VerifyBackend missed corruption")
	}
}

func TestListSnapshots(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	for _, s := range seqStates(3) {
		m.Save(s)
	}
	m.Close()
	hs, skipped, err := ListSnapshotsBackend(dirStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 3 || len(skipped) != 0 {
		t.Fatalf("list: %d headers, %d skipped", len(hs), len(skipped))
	}
	// Newest first.
	if hs[0].Seq != 2 || hs[2].Seq != 0 {
		t.Errorf("not sorted newest-first: %v", hs)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, "ckpt-bogus.qckpt"), []byte("junk"), 0o644)
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	s := sampleState()
	m.Save(s)
	m.Close()
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("foreign files disturbed recovery")
	}
}

func TestSnapshotNameRoundTrip(t *testing.T) {
	for _, k := range []SnapshotKind{KindFull, KindDelta} {
		name := snapshotName(1234, k)
		seq, kind, ok := parseSnapshotName(name)
		if !ok || seq != 1234 || kind != k {
			t.Errorf("name round trip failed: %s -> %d %v %v", name, seq, kind, ok)
		}
	}
	for _, bad := range []string{"x.qckpt", "ckpt-12.qckpt", "ckpt-12-weird.qckpt", "ckpt-a-full.qckpt", "other.txt"} {
		if _, _, ok := parseSnapshotName(bad); ok {
			t.Errorf("parsed foreign name %q", bad)
		}
	}
}

func TestPolicyTracker(t *testing.T) {
	tr := NewTracker(Policy{EverySteps: 3})
	now := time.Duration(0)
	if tr.NoteStep(now) || tr.NoteStep(now) {
		t.Errorf("fired before 3 steps")
	}
	if !tr.NoteStep(now) {
		t.Errorf("did not fire at 3 steps")
	}
	tr.NoteCheckpoint(now)
	if tr.NoteStep(now) {
		t.Errorf("fired immediately after checkpoint")
	}
}

func TestPolicyUnits(t *testing.T) {
	tr := NewTracker(Policy{EveryUnits: 2})
	if tr.NoteUnit(0) {
		t.Errorf("fired at 1 unit")
	}
	if !tr.NoteUnit(0) {
		t.Errorf("did not fire at 2 units")
	}
}

func TestPolicyWallClock(t *testing.T) {
	tr := NewTracker(Policy{EveryWall: time.Minute})
	if tr.NoteUnit(10 * time.Second) {
		t.Errorf("fired early")
	}
	if !tr.NoteUnit(2 * time.Minute) {
		t.Errorf("did not fire after interval")
	}
	tr.NoteCheckpoint(2 * time.Minute)
	if tr.NoteUnit(2*time.Minute + 30*time.Second) {
		t.Errorf("fired before next interval")
	}
}

func TestPolicyZeroNeverFires(t *testing.T) {
	tr := NewTracker(Policy{})
	for i := 0; i < 100; i++ {
		if tr.NoteStep(time.Duration(i)*time.Hour) || tr.NoteUnit(time.Duration(i)*time.Hour) {
			t.Fatalf("zero policy fired")
		}
	}
}

func TestPolicyStepTriggerIgnoresUnits(t *testing.T) {
	tr := NewTracker(Policy{EverySteps: 1})
	if tr.NoteUnit(0) {
		t.Errorf("step trigger fired on unit event")
	}
	if !tr.NoteStep(0) {
		t.Errorf("step trigger did not fire on step")
	}
}

func TestManagerSeqMonotoneAcrossKinds(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 2})
	defer m.Close()
	var lastSeq uint64
	for i, s := range seqStates(6) {
		res, err := m.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Seq != lastSeq+1 {
			t.Errorf("seq jumped: %d -> %d", lastSeq, res.Seq)
		}
		lastSeq = res.Seq
		if _, err := m.Backend().Stat(res.Path); err != nil {
			t.Errorf("snapshot %s not in the store: %v", res.Path, err)
		}
	}
}

// BenchmarkCheckpointSave measures the raw foreground cost of one full
// checkpoint save (encode + compress + atomic write) for a mid-size state.
func BenchmarkCheckpointSave(b *testing.B) {
	mgr, err := NewManager(Options{Backend: dirStore(b, b.TempDir()), Strategy: StrategyFull})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	st := benchState(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step = uint64(i)
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSaveDelta measures one delta save.
func BenchmarkCheckpointSaveDelta(b *testing.B) {
	mgr, err := NewManager(Options{Backend: dirStore(b, b.TempDir()), Strategy: StrategyDelta, AnchorEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	st := benchState(2048)
	if _, err := mgr.Save(st); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSaveChunked measures one chunked delta save with a
// 4-worker pipeline (content-addressed dedup against the chunk store).
func BenchmarkCheckpointSaveChunked(b *testing.B) {
	mgr, err := NewManager(Options{
		Backend: dirStore(b, b.TempDir()), Strategy: StrategyDelta, AnchorEvery: 1 << 30,
		Workers: 4, ChunkBytes: 8 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	st := benchState(2048)
	if _, err := mgr.Save(st); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := mgr.Stats()
	if stats.Chunks > 0 {
		b.ReportMetric(100*float64(stats.DedupHits)/float64(stats.Chunks), "dedup-%")
	}
}

// BenchmarkRecovery measures LoadLatestBackendOptions over a directory
// with a delta chain.
func BenchmarkRecovery(b *testing.B) {
	store := dirStore(b, b.TempDir())
	mgr, err := NewManager(Options{Backend: store, Strategy: StrategyDelta, AnchorEvery: 8})
	if err != nil {
		b.Fatal(err)
	}
	st := benchState(2048)
	for i := 0; i < 20; i++ {
		st.Step = uint64(i)
		st.Params[i%len(st.Params)] += 1e-9
		if _, err := mgr.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	mgr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LoadLatestBackendOptions(store, nil, RestoreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchState builds a TrainingState with p parameters and Adam-sized
// optimizer state.
func benchState(p int) *TrainingState {
	st := NewTrainingState()
	st.Params = make([]float64, p)
	for i := range st.Params {
		st.Params[i] = float64(i) * 0.137
	}
	st.Optimizer = make([]byte, 16*p+64)
	st.RNG = make([]byte, 200)
	st.LossHistory = make([]float64, 100)
	st.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "bench", ProblemFP: "bench", OptimizerName: "adam"}
	return st
}
