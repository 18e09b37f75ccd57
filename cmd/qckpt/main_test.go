package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// populate writes a few snapshots and returns the paths.
func populate(t *testing.T, dir string, strategy core.Strategy) []string {
	t.Helper()
	m, err := core.NewManager(core.Options{Dir: dir, Strategy: strategy, AnchorEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var paths []string
	st := core.NewTrainingState()
	st.Params = []float64{1, 2, 3}
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	st.BestLoss = math.Inf(1)
	for i := 0; i < 4; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[0] += 0.25
		st.LossHistory = append(st.LossHistory, 1/float64(i+1))
		res, err := m.Save(st)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, res.Path)
	}
	return paths
}

func TestCmdLsVerifyLatest(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, core.StrategyDelta)
	if err := cmdLs(dir); err != nil {
		t.Errorf("ls: %v", err)
	}
	if err := cmdVerify(dir); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := cmdLatest(dir); err != nil {
		t.Errorf("latest: %v", err)
	}
}

func TestCmdShowFullAndDelta(t *testing.T) {
	dir := t.TempDir()
	paths := populate(t, dir, core.StrategyDelta)
	// paths[0] is the full anchor, paths[1] a delta.
	if err := cmdShow(paths[0]); err != nil {
		t.Errorf("show full: %v", err)
	}
	if err := cmdShow(paths[1]); err != nil {
		t.Errorf("show delta: %v", err)
	}
}

func TestCmdCompactAndDiff(t *testing.T) {
	dir := t.TempDir()
	paths := populate(t, dir, core.StrategyFull)
	if err := cmdDiff(paths[0], paths[3]); err != nil {
		t.Errorf("diff: %v", err)
	}
	if err := cmdCompact(dir); err != nil {
		t.Errorf("compact: %v", err)
	}
	// After compaction exactly one snapshot remains and still verifies.
	if err := cmdVerify(dir); err != nil {
		t.Errorf("verify after compact: %v", err)
	}
}

func TestCmdDiffRejectsDelta(t *testing.T) {
	dir := t.TempDir()
	paths := populate(t, dir, core.StrategyDelta)
	if err := cmdDiff(paths[1], paths[2]); err == nil {
		t.Errorf("diff of delta snapshots accepted")
	}
}

// populateTiered writes a chunked delta history into the standard tiered
// directory layout and returns the composite backend.
func populateTiered(t *testing.T, dir string, names []string) *storage.Tiered {
	t.Helper()
	tiered, err := storage.NewTieredDir(dir, names)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(core.Options{
		Backend: tiered, Strategy: core.StrategyDelta, AnchorEvery: 2, ChunkBytes: core.MinChunkBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := core.NewTrainingState()
	st.Params = []float64{1, 2, 3}
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	st.BestLoss = math.Inf(1)
	for i := 0; i < 6; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[0] += 0.25
		if _, err := m.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	return tiered
}

func TestCmdTiersMigrateGc(t *testing.T) {
	dir := t.TempDir()
	populateTiered(t, dir, []string{"nvme", "object"})
	levelsFlag = "nvme,object"
	keepChains = 1
	defer func() { levelsFlag = "" }()

	if err := cmdTiers(dir); err != nil {
		t.Errorf("tiers: %v", err)
	}
	if err := cmdMigrate(dir); err != nil {
		t.Errorf("migrate: %v", err)
	}
	// After migration only the newest chain stays hot; tiered ls/verify/
	// latest still see everything.
	hot, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	hotKeys, _ := hot.List("ckpt-")
	if len(hotKeys) != 2 {
		t.Errorf("hot level holds %v after migrate, want 2 manifests", hotKeys)
	}
	if err := cmdVerify(dir); err != nil {
		t.Errorf("verify tiered: %v", err)
	}
	if err := cmdLatest(dir); err != nil {
		t.Errorf("latest tiered: %v", err)
	}
	if err := cmdGc(dir); err != nil {
		t.Errorf("gc tiered: %v", err)
	}
	// migrate demands a sane -keep.
	keepChains = 0
	if err := cmdMigrate(dir); err == nil {
		t.Errorf("migrate accepted -keep 0")
	}
	keepChains = 1
}

func TestCmdGcReclaimsOrphans(t *testing.T) {
	dir := t.TempDir()
	m, err := core.NewManager(core.Options{Dir: dir, Strategy: core.StrategyFull, ChunkBytes: core.MinChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewTrainingState()
	st.Params = []float64{1, 2, 3}
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	st.BestLoss = math.Inf(1)
	var last string
	for i := 0; i < 2; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[0] += 1
		res, err := m.Save(st)
		if err != nil {
			t.Fatal(err)
		}
		last = res.Path
	}
	m.Close()
	// Orphan the newest snapshot's chunks by deleting its manifest.
	if err := os.Remove(last); err != nil {
		t.Fatal(err)
	}
	b, _ := storage.NewLocal(dir)
	before, _ := storage.NewChunkStore(storage.WithPrefix(b, core.ChunkPrefix)).List()
	if err := cmdGc(dir); err != nil {
		t.Fatalf("gc: %v", err)
	}
	after, _ := storage.NewChunkStore(storage.WithPrefix(b, core.ChunkPrefix)).List()
	if len(after) >= len(before) {
		t.Errorf("gc reclaimed nothing: %d -> %d chunks", len(before), len(after))
	}
	// The surviving snapshot still verifies.
	if err := cmdVerify(dir); err != nil {
		t.Errorf("verify after gc: %v", err)
	}
}

func TestCmdErrorsOnMissing(t *testing.T) {
	if err := cmdLs(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Errorf("ls of missing dir succeeded")
	}
	if err := cmdShow(filepath.Join(t.TempDir(), "nope.qckpt")); err == nil {
		t.Errorf("show of missing file succeeded")
	}
	if err := cmdLatest(t.TempDir()); err == nil {
		t.Errorf("latest on empty dir succeeded")
	}
	if err := cmdCompact(t.TempDir()); err == nil {
		t.Errorf("compact on empty dir succeeded")
	}
}

func TestCmdRestoreParallel(t *testing.T) {
	dir := t.TempDir()
	m, err := core.NewManager(core.Options{
		Dir: dir, Strategy: core.StrategyDelta, AnchorEvery: 4,
		ChunkBytes: core.MinChunkBytes, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewTrainingState()
	st.Params = make([]float64, 2048)
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	st.BestLoss = math.Inf(1)
	for i := 0; i < 6; i++ {
		st = st.Clone()
		st.Step = uint64(i)
		st.Params[i] += 1
		if _, err := m.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	restoreWorkers, restorePrefetch = 4, 8
	defer func() { restoreWorkers, restorePrefetch = 0, 0 }()
	if err := cmdRestore(dir); err != nil {
		t.Errorf("restore: %v", err)
	}
}

func TestRejectFlagLikeArg(t *testing.T) {
	for _, arg := range []string{"-listen", "--addr", "-"} {
		if err := rejectFlagLikeArg(arg); err == nil {
			t.Errorf("flag-like argument %q accepted as a path", arg)
		}
	}
	for _, arg := range []string{"store", "./dir", "serve", "a-b"} {
		if err := rejectFlagLikeArg(arg); err != nil {
			t.Errorf("argument %q rejected: %v", arg, err)
		}
	}
}

func TestParsePlacementAndQoS(t *testing.T) {
	pol, err := parsePlacement("delta=object,archive=object")
	if err != nil || pol.Delta != "object" || pol.Archive != "object" || pol.Manifest != "" {
		t.Fatalf("parsePlacement: %+v, %v", pol, err)
	}
	if _, err := parsePlacement("chunk=object"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := parsePlacement("delta"); err == nil {
		t.Error("malformed entry accepted")
	}
	cfg, err := parseQoS(256, 8, "noisy=64:2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.QuotaBytes != 256<<20 || cfg.Default.RateBytesPerSec != 8<<20 {
		t.Errorf("default limits: %+v", cfg.Default)
	}
	if lim := cfg.Tenants["noisy"]; lim.QuotaBytes != 64<<20 || lim.RateBytesPerSec != 2<<20 {
		t.Errorf("override limits: %+v", lim)
	}
	if _, err := parseQoS(0, 0, "bad"); err == nil {
		t.Error("malformed QoS spec accepted")
	}
}

func TestCmdShowCDCManifest(t *testing.T) {
	dir := t.TempDir()
	m, err := core.NewManager(core.Options{
		Dir: dir, Strategy: core.StrategyFull,
		ChunkBytes: core.MinChunkBytes, Chunker: core.ChunkerCDC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := core.NewTrainingState()
	st.Params = make([]float64, 4096)
	for i := range st.Params {
		st.Params[i] = float64(i)
	}
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	st.BestLoss = math.Inf(1)
	res, err := m.Save(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdShow(res.Path); err != nil {
		t.Errorf("show cdc snapshot: %v", err)
	}
	if err := cmdVerify(dir); err != nil {
		t.Errorf("verify cdc store: %v", err)
	}
}
