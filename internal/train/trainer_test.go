package train

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/failure"
	"repro/internal/grad"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/rng"
	"repro/internal/storage"
)

// dirStore opens a checkpoint directory as the backend the entry points take.
func dirStore(t *testing.T, dir string) storage.Backend {
	t.Helper()
	b, err := core.DirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// vqeConfig builds a small, fast VQE training configuration. QPU latencies
// are zero so tests run quickly; shot noise is on (it is the reproducibility
// stressor).
func vqeConfig(t *testing.T) Config {
	t.Helper()
	h := observable.TFIM(3, 1.0, 0.7)
	task, err := NewVQETask(h)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Circuit:       circuit.HardwareEfficient(3, 1),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         128,
		Seed:          424242,
		QPU:           qpu.Config{},
	}
}

func stateLearningConfig(t *testing.T) Config {
	t.Helper()
	d, err := dataset.NewUnitaryLearning(2, 8, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	task, err := NewStateLearningTask(d)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Circuit:       circuit.HardwareEfficient(2, 2),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.1,
		Shots:         256,
		BatchSize:     4,
		Seed:          7,
		QPU:           qpu.Config{},
	}
}

func TestVQETrainingMakesProgress(t *testing.T) {
	cfg := vqeConfig(t)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.ExactLoss()
	if _, err := tr.Run(40); err != nil {
		t.Fatal(err)
	}
	final := tr.LossHistory()[len(tr.LossHistory())-1]
	if final >= initial-0.2 {
		t.Errorf("VQE made no progress: %v -> %v", initial, final)
	}
	if tr.Step() != 40 || len(tr.LossHistory()) != 40 {
		t.Errorf("step=%d history=%d", tr.Step(), len(tr.LossHistory()))
	}
	if tr.BestLoss() > final+1e-12 && tr.BestLoss() > initial {
		t.Errorf("best loss inconsistent: %v", tr.BestLoss())
	}
}

func TestStateLearningMakesProgress(t *testing.T) {
	cfg := stateLearningConfig(t)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.ExactLoss()
	if _, err := tr.Run(30); err != nil {
		t.Fatal(err)
	}
	final := tr.ExactLoss()
	if final >= initial*0.8 {
		t.Errorf("state learning made no progress: %v -> %v", initial, final)
	}
	if tr.Epoch() == 0 {
		t.Errorf("30 steps of batch 4 over 8 samples should complete epochs")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := vqeConfig(t)
	run := func() []float64 {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(10); err != nil {
			t.Fatal(err)
		}
		return append([]float64{}, tr.Theta()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at param %d", i)
		}
	}
}

// TestBitwiseIdenticalResume is the core correctness guarantee: capture at
// step k, restore into a brand-new trainer, continue — the trajectory must
// be bitwise identical to an uninterrupted run.
func TestBitwiseIdenticalResume(t *testing.T) {
	for name, mk := range map[string]func(*testing.T) Config{
		"vqe":            vqeConfig,
		"state-learning": stateLearningConfig,
	} {
		t.Run(name, func(t *testing.T) {
			cfg := mk(t)

			// Uninterrupted reference: 20 steps.
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Run(20); err != nil {
				t.Fatal(err)
			}

			// Interrupted: 8 steps, capture, fresh trainer, restore, 12 more.
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Run(8); err != nil {
				t.Fatal(err)
			}
			st, err := a.Capture()
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(st); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Run(20); err != nil {
				t.Fatal(err)
			}

			if len(ref.Theta()) != len(b.Theta()) {
				t.Fatal("param length mismatch")
			}
			for i := range ref.Theta() {
				if ref.Theta()[i] != b.Theta()[i] {
					t.Fatalf("resumed theta[%d] = %v, reference %v", i, b.Theta()[i], ref.Theta()[i])
				}
			}
			rh, bh := ref.LossHistory(), b.LossHistory()
			if len(rh) != len(bh) {
				t.Fatalf("history lengths %d vs %d", len(rh), len(bh))
			}
			for i := range rh {
				if rh[i] != bh[i] {
					t.Fatalf("loss history diverged at step %d: %v vs %v", i, bh[i], rh[i])
				}
			}
			if ref.Backend().TotalShots() != b.Backend().TotalShots() {
				t.Errorf("shot accounting diverged: %d vs %d",
					b.Backend().TotalShots(), ref.Backend().TotalShots())
			}
		})
	}
}

// TestSubStepResume interrupts a step mid-gradient (via preemption),
// captures with a partially filled accumulator, restores, and checks the
// final trajectory is identical to the uninterrupted run.
func TestSubStepResume(t *testing.T) {
	cfg := vqeConfig(t)
	// Reference run: 5 steps, no failures.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(5); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: a failure strikes mid-step-3. Each unit costs
	// 3 terms × 128 shots = 384 shots; with ShotTime=1ms that is 0.384 s
	// per unit, 18 units per step (9 params × 2). Place a failure inside
	// step 3 (between t=2 steps·6.912s and 3 steps worth).
	cfgF := cfg
	cfgF.QPU.ShotTime = time.Millisecond
	sched, err := failure.NewTrace([]time.Duration{15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfgF.Failures = sched

	// Matching reference with the same QPU timing (virtual time does not
	// change results, but config equality keeps meta compatible).
	refF, err := New(cfgF)
	if err != nil {
		t.Fatal(err)
	}
	// Reference consumes no failures: give it its own schedule-free config.
	cfgRef := cfg
	cfgRef.QPU.ShotTime = time.Millisecond
	refF, err = New(cfgRef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refF.Run(5); err != nil {
		t.Fatal(err)
	}

	a, err := New(cfgF)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := a.Run(5)
	if !errors.Is(runErr, qpu.ErrPreempted) {
		t.Fatalf("expected preemption, got %v (step %d)", runErr, a.Step())
	}
	if a.Step() >= 5 {
		t.Fatalf("preemption did not interrupt: step %d", a.Step())
	}

	// Capture mid-step state (client survives preemption long enough to
	// checkpoint — or this came from an earlier sub-step checkpoint).
	st, err := a.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.GradAccum) == 0 {
		t.Fatalf("expected partial gradient accumulator in snapshot")
	}

	b, err := New(cfgF)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(5); err != nil {
		t.Fatal(err)
	}

	for i := range refF.Theta() {
		if refF.Theta()[i] != b.Theta()[i] {
			t.Fatalf("sub-step resumed theta[%d] diverged: %v vs %v", i, b.Theta()[i], refF.Theta()[i])
		}
	}
}

func TestCheckpointPolicyWritesFiles(t *testing.T) {
	cfg := vqeConfig(t)
	dir := t.TempDir()
	mgr, err := core.NewManager(core.Options{Backend: dirStore(t, dir), Strategy: core.StrategyDelta, AnchorEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cfg.Manager = mgr
	cfg.Policy = core.Policy{EverySteps: 2}

	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(10); err != nil {
		t.Fatal(err)
	}
	if tr.Checkpoints() != 5 {
		t.Errorf("checkpoints = %d, want 5", tr.Checkpoints())
	}
	// Latest checkpoint restores to step 10.
	live := cfg.Meta()
	st, _, err := core.LoadLatestBackendOptions(dirStore(t, dir), &live, core.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 10 {
		t.Errorf("latest checkpoint at step %d", st.Step)
	}
}

func TestResumeLatestEndToEnd(t *testing.T) {
	cfg := vqeConfig(t)
	dir := t.TempDir()
	mgr, err := core.NewManager(core.Options{Backend: dirStore(t, dir), Strategy: core.StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Manager = mgr
	cfg.Policy = core.Policy{EverySteps: 1}

	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(6); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	// "Crash": throw the trainer away; resume from disk. The resumed
	// trainer gets a fresh manager (append to the same dir).
	mgr2, err := core.NewManager(core.Options{Backend: dirStore(t, dir), Strategy: core.StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	cfg2 := cfg
	cfg2.Manager = mgr2
	tr2, report, err := ResumeLatestBackendOptions(cfg2, dirStore(t, dir), core.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Step() != 6 {
		t.Errorf("resumed at step %d, want 6", tr2.Step())
	}
	if report.Path == "" {
		t.Errorf("empty load report")
	}
	if _, err := tr2.Run(12); err != nil {
		t.Fatal(err)
	}
	if tr2.Step() != 12 {
		t.Errorf("continued to step %d, want 12", tr2.Step())
	}

	// Compare with uninterrupted run.
	cfgRef := vqeConfig(t)
	ref, _ := New(cfgRef)
	if _, err := ref.Run(12); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Theta() {
		if ref.Theta()[i] != tr2.Theta()[i] {
			t.Fatalf("disk-resumed run diverged at param %d", i)
		}
	}
}

func TestResumeLatestNoCheckpoint(t *testing.T) {
	cfg := vqeConfig(t)
	if _, _, err := ResumeLatestBackendOptions(cfg, dirStore(t, t.TempDir()), core.RestoreOptions{}); !errors.Is(err, core.ErrNoCheckpoint) {
		t.Errorf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestRestoreRejectsWrongConfig(t *testing.T) {
	cfg := vqeConfig(t)
	tr, _ := New(cfg)
	if _, err := tr.Run(2); err != nil {
		t.Fatal(err)
	}
	st, _ := tr.Capture()

	// Different ansatz.
	cfg2 := vqeConfig(t)
	cfg2.Circuit = circuit.HardwareEfficient(3, 2)
	tr2, _ := New(cfg2)
	if err := tr2.Restore(st); err == nil {
		t.Errorf("restore into different circuit accepted")
	}

	// Different learning rate (hyperparameter mismatch).
	cfg3 := vqeConfig(t)
	cfg3.LearningRate = 0.2
	tr3, _ := New(cfg3)
	if err := tr3.Restore(st); err == nil {
		t.Errorf("restore with different hyperparameters accepted")
	}

	// Different optimizer.
	cfg4 := vqeConfig(t)
	cfg4.OptimizerName = "sgd"
	tr4, _ := New(cfg4)
	if err := tr4.Restore(st); err == nil {
		t.Errorf("restore into different optimizer accepted")
	}
}

func TestTargetLossStopsEarly(t *testing.T) {
	cfg := vqeConfig(t)
	cfg.TargetEnabled = true
	cfg.TargetLoss = math.Inf(1) // any loss satisfies
	tr, _ := New(cfg)
	ran, err := tr.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran %d steps, want 1 (stop after first loss ≤ target)", ran)
	}
	if !tr.TargetReached() {
		t.Errorf("TargetReached false")
	}
}

func TestConfigValidation(t *testing.T) {
	good := vqeConfig(t)
	bads := []func(*Config){
		func(c *Config) { c.Circuit = nil },
		func(c *Config) { c.Task = nil },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.Shots = 0 },
		func(c *Config) { c.OptimizerName = "bogus" },
		func(c *Config) { c.QPU.QueueJitter = 2 },
	}
	for i, mut := range bads {
		c := good
		mut(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// Dataset task with bad batch size.
	slCfg := stateLearningConfig(t)
	slCfg.BatchSize = 0
	if _, err := New(slCfg); err == nil {
		t.Errorf("batch size 0 accepted for dataset task")
	}
	slCfg.BatchSize = 99
	if _, err := New(slCfg); err == nil {
		t.Errorf("batch size > dataset accepted")
	}
}

func TestPreemptionSurfacesAndWorldPersists(t *testing.T) {
	cfg := vqeConfig(t)
	cfg.QPU.ShotTime = time.Millisecond
	sched, _ := failure.NewTrace([]time.Duration{3 * time.Second, 9 * time.Second})
	cfg.Failures = sched

	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.Run(100)
	if !errors.Is(err, qpu.ErrPreempted) {
		t.Fatalf("want preemption, got %v", err)
	}
	if tr.Backend().Preemptions() != 1 {
		t.Errorf("preemptions = %d", tr.Backend().Preemptions())
	}
	// Retry in the same incarnation: accumulator retained, second failure
	// later on.
	_, err = tr.Run(100)
	if !errors.Is(err, qpu.ErrPreempted) {
		t.Fatalf("want second preemption, got %v", err)
	}
	if tr.Backend().Preemptions() != 2 {
		t.Errorf("preemptions = %d", tr.Backend().Preemptions())
	}
	// After both failures are consumed, training completes.
	if _, err := tr.Run(3); err != nil {
		t.Fatal(err)
	}
	if tr.Step() != 3 {
		t.Errorf("step = %d", tr.Step())
	}
}

func TestClassificationTaskTrains(t *testing.T) {
	d, err := dataset.NewBlobs(2, 16, 2.0, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	task, err := NewClassificationTask(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Circuit:       circuit.HardwareEfficient(2, 1),
		Task:          task,
		OptimizerName: "adam",
		LearningRate:  0.2,
		Shots:         256,
		BatchSize:     4,
		Seed:          11,
		QPU:           qpu.Config{},
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(25); err != nil {
		t.Fatal(err)
	}
	acc := task.Accuracy(tr.Backend(), cfg.Circuit, tr.Theta())
	if acc < 0.8 {
		t.Errorf("blob classification accuracy %v after 25 steps", acc)
	}
}

func TestSubStepCheckpointPolicy(t *testing.T) {
	cfg := vqeConfig(t)
	dir := t.TempDir()
	mgr, err := core.NewManager(core.Options{Backend: dirStore(t, dir), Strategy: core.StrategyDelta, AnchorEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cfg.Manager = mgr
	cfg.Policy = core.Policy{EveryUnits: 5}

	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(2); err != nil {
		t.Fatal(err)
	}
	// 18 units per step × 2 steps = 36 units, checkpoint every 5 → 7.
	if tr.Checkpoints() != 7 {
		t.Errorf("sub-step checkpoints = %d, want 7", tr.Checkpoints())
	}
	// At least one snapshot contains a partial accumulator.
	hs, _, err := core.ListSnapshotsBackend(dirStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 7 {
		t.Fatalf("snapshot count %d", len(hs))
	}
	live := cfg.Meta()
	st, _, err := core.LoadLatestBackendOptions(dirStore(t, dir), &live, core.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.GradAccum) == 0 {
		t.Errorf("latest sub-step snapshot has no accumulator (unit 35 of 36 is mid-step)")
	}
}

func TestHintWindowCheckpointsBeforePreemption(t *testing.T) {
	// A session kill at t=10s. Units cost ~0.384s each. With a hint window,
	// the trainer checkpoints right before the kill, so the recovered state
	// carries nearly all pre-kill units; without it, nothing is saved.
	mk := func(hint time.Duration) (recoveredUnits int, checkpoints int) {
		cfg := vqeConfig(t)
		cfg.QPU.ShotTime = time.Millisecond
		sched, err := failure.NewTrace([]time.Duration{10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Failures = sched
		dir := t.TempDir()
		mgr, err := core.NewManager(core.Options{Backend: dirStore(t, dir), Strategy: core.StrategyDelta, AnchorEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		cfg.Manager = mgr
		cfg.HintWindow = hint
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := tr.Run(100)
		if !errors.Is(runErr, qpu.ErrPreempted) {
			t.Fatalf("want preemption, got %v", runErr)
		}
		if tr.Checkpoints() == 0 {
			return 0, 0
		}
		live := cfg.Meta()
		st, _, err := core.LoadLatestBackendOptions(dirStore(t, dir), &live, core.RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		acc := &grad.Accumulator{}
		units := 0
		if len(st.GradAccum) > 0 {
			if err := acc.UnmarshalBinary(st.GradAccum); err != nil {
				t.Fatal(err)
			}
			units = acc.CompletedUnits()
		}
		return int(st.Step)*18 + units, tr.Checkpoints()
	}

	withHint, ckptsHint := mk(time.Second)
	withoutHint, ckptsNone := mk(0)
	if ckptsNone != 0 {
		t.Fatalf("no-hint run checkpointed %d times with a step/unit-free policy", ckptsNone)
	}
	if ckptsHint == 0 {
		t.Fatalf("hint run never checkpointed")
	}
	if withHint <= withoutHint {
		t.Errorf("hint saved %d units vs %d without; expected more", withHint, withoutHint)
	}
	// The hint checkpoint should capture nearly all pre-kill work: each
	// unit costs 5 terms × 128 shots × 1 ms = 0.64 s, so ~15 units fit
	// before the kill at t=10 s.
	if withHint < 14 {
		t.Errorf("hint checkpoint captured only %d units", withHint)
	}
}

func TestRunUnitsPartialThenStepCompletes(t *testing.T) {
	cfg := vqeConfig(t)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PendingUnits() != 0 {
		t.Fatalf("fresh trainer has pending units")
	}
	if err := tr.RunUnits(4); err != nil {
		t.Fatal(err)
	}
	if tr.PendingUnits() != 4 {
		t.Errorf("pending = %d, want 4", tr.PendingUnits())
	}
	if tr.Step() != 0 {
		t.Errorf("RunUnits completed a step")
	}
	// RunStep finishes the partial gradient and applies the update; the
	// result matches an uninterrupted run exactly.
	if err := tr.RunStep(); err != nil {
		t.Fatal(err)
	}
	if tr.Step() != 1 || tr.PendingUnits() != 0 {
		t.Errorf("step=%d pending=%d after completing", tr.Step(), tr.PendingUnits())
	}
	ref, _ := New(cfg)
	if err := ref.RunStep(); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Theta() {
		if ref.Theta()[i] != tr.Theta()[i] {
			t.Fatalf("RunUnits+RunStep diverged from RunStep at param %d", i)
		}
	}
	if err := tr.RunUnits(0); err == nil {
		t.Errorf("RunUnits(0) accepted")
	}
}

func TestWallClockPolicyUsesVirtualTime(t *testing.T) {
	// EveryWall fires on the backend's virtual clock: with 1 ms/shot steps
	// cost ~11.5 s each, so a 30 s wall policy checkpoints roughly every
	// third step.
	cfg := vqeConfig(t)
	cfg.QPU.ShotTime = time.Millisecond
	dir := t.TempDir()
	mgr, err := core.NewManager(core.Options{Backend: dirStore(t, dir), Strategy: core.StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cfg.Manager = mgr
	cfg.Policy = core.Policy{EveryWall: 30 * time.Second}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(9); err != nil {
		t.Fatal(err)
	}
	// 9 steps ≈ 104 s of virtual time → at least 2 and at most 5 wall-clock
	// checkpoints.
	if tr.Checkpoints() < 2 || tr.Checkpoints() > 5 {
		t.Errorf("wall-clock policy fired %d times over ~104s with a 30s interval", tr.Checkpoints())
	}
}
