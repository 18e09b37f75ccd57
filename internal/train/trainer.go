package train

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/grad"
	"repro/internal/optimizer"
	"repro/internal/qpu"
	"repro/internal/rng"
	"repro/internal/storage"
)

// Config describes a training run. The same Config (and the same failure
// schedule object) is used to construct every incarnation of a run across
// crashes, so fingerprints and determinism line up.
type Config struct {
	// Circuit is the trainable ansatz.
	Circuit *circuit.Circuit
	// Task is the training objective.
	Task Task
	// OptimizerName selects the optimizer kind ("sgd", "adam", ...).
	OptimizerName string
	// LearningRate is the optimizer step size.
	LearningRate float64
	// Shots is the per-evaluation shot budget (per Hamiltonian term or per
	// fidelity job).
	Shots int
	// BatchSize is the minibatch size for dataset tasks; ignored for
	// problem-level tasks.
	BatchSize int
	// Seed derives every RNG stream of the run.
	Seed uint64
	// QPU configures the simulated device.
	QPU qpu.Config
	// Failures optionally injects preemptions; the schedule object is
	// shared across trainer incarnations so the virtual world persists.
	Failures *failure.Schedule
	// Manager optionally enables checkpointing.
	Manager *core.Manager
	// Policy decides when to checkpoint (ignored without Manager).
	Policy core.Policy
	// HintWindow enables proactive checkpointing on session-expiry hints:
	// when the QPU reports a failure within this window of virtual time and
	// un-checkpointed progress exists, the trainer checkpoints immediately
	// (0 disables).
	HintWindow time.Duration
	// TargetLoss stops training early when the exact loss reaches it;
	// enabled by TargetEnabled.
	TargetLoss    float64
	TargetEnabled bool
}

func (c Config) validate() error {
	if c.Circuit == nil {
		return errors.New("train: circuit required")
	}
	if err := c.Circuit.Validate(); err != nil {
		return err
	}
	if c.Task == nil {
		return errors.New("train: task required")
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("train: learning rate %v", c.LearningRate)
	}
	if c.Shots <= 0 {
		return fmt.Errorf("train: shots %d", c.Shots)
	}
	if c.Task.NumSamples() > 0 && (c.BatchSize < 1 || c.BatchSize > c.Task.NumSamples()) {
		return fmt.Errorf("train: batch size %d for %d samples", c.BatchSize, c.Task.NumSamples())
	}
	return c.QPU.Validate()
}

// meta builds the checkpoint metadata for this configuration.
func (c Config) Meta() core.Meta {
	return core.Meta{
		FormatVersion: core.FormatVersion,
		CircuitFP:     c.Circuit.Fingerprint(),
		ProblemFP:     c.Task.Fingerprint(),
		OptimizerName: c.OptimizerName,
		Extra: fmt.Sprintf("lr=%g;shots=%d;batch=%d;seed=%d",
			c.LearningRate, c.Shots, c.BatchSize, c.Seed),
	}
}

// Trainer is one incarnation of a training run. It is not safe for
// concurrent use.
type Trainer struct {
	cfg     Config
	backend *qpu.Backend
	rngs    *rng.Set
	opt     optimizer.Optimizer
	theta   []float64
	acc     *grad.Accumulator
	tracker *core.Tracker

	step, epoch uint64
	perm        []int
	pos         int
	lossHistory []float64
	bestLoss    float64
	bestParams  []float64

	checkpoints int
}

// New builds a fresh trainer (step 0, fresh parameter init). To resume an
// interrupted run, call New with the identical Config and then Restore.
func New(cfg Config) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	set := rng.NewSet(cfg.Seed)
	backend, err := qpu.New(cfg.QPU, set.Shots, set.Noise, cfg.Failures)
	if err != nil {
		return nil, err
	}
	opt, err := optimizer.New(cfg.OptimizerName, cfg.Circuit.NumParams, cfg.LearningRate)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		cfg:      cfg,
		backend:  backend,
		rngs:     set,
		opt:      opt,
		theta:    cfg.Circuit.InitParams(set.Init),
		acc:      grad.NewAccumulator(len(grad.Plan(cfg.Circuit))),
		tracker:  core.NewTracker(cfg.Policy),
		bestLoss: math.Inf(1),
	}
	if n := cfg.Task.NumSamples(); n > 0 {
		t.perm = set.Data.Perm(n)
	}
	return t, nil
}

// Step returns the number of completed optimizer steps.
func (t *Trainer) Step() uint64 { return t.step }

// Epoch returns the number of completed dataset passes.
func (t *Trainer) Epoch() uint64 { return t.epoch }

// Theta returns the live parameter vector (not a copy).
func (t *Trainer) Theta() []float64 { return t.theta }

// LossHistory returns the exact-loss trace, one entry per completed step.
func (t *Trainer) LossHistory() []float64 { return t.lossHistory }

// BestLoss returns the best exact loss seen.
func (t *Trainer) BestLoss() float64 { return t.bestLoss }

// Backend exposes the QPU backend for measurement by experiments.
func (t *Trainer) Backend() *qpu.Backend { return t.backend }

// Checkpoints returns how many checkpoints this incarnation wrote.
func (t *Trainer) Checkpoints() int { return t.checkpoints }

// ExactLoss evaluates the noiseless full-problem loss at the current
// parameters.
func (t *Trainer) ExactLoss() float64 {
	return t.cfg.Task.ExactLoss(t.backend, t.cfg.Circuit, t.theta)
}

// currentBatch returns the minibatch indices for the in-progress step
// without consuming the cursor (so a mid-step resume sees the same batch).
func (t *Trainer) currentBatch() []int {
	if t.cfg.Task.NumSamples() == 0 {
		return nil
	}
	b := make([]int, 0, t.cfg.BatchSize)
	pos := t.pos
	for len(b) < t.cfg.BatchSize {
		if pos >= len(t.perm) {
			pos = 0 // wrap within the same permutation for batch assembly
		}
		b = append(b, t.perm[pos])
		pos++
	}
	return b
}

// advanceCursor consumes the cursor after a completed step, reshuffling at
// epoch boundaries (consuming the Data stream — checkpointed state).
func (t *Trainer) advanceCursor() {
	if t.cfg.Task.NumSamples() == 0 {
		return
	}
	t.pos += t.cfg.BatchSize
	if t.pos >= len(t.perm) {
		t.pos = 0
		t.epoch++
		t.perm = t.rngs.Data.Perm(t.cfg.Task.NumSamples())
	}
}

// checkpoint captures and saves the full state. Never called concurrently.
func (t *Trainer) checkpoint() error {
	if t.cfg.Manager == nil {
		return nil
	}
	st, err := t.Capture()
	if err != nil {
		return err
	}
	if _, err := t.cfg.Manager.Save(st); err != nil {
		return err
	}
	t.checkpoints++
	t.tracker.NoteCheckpoint(t.backend.Clock())
	return nil
}

// RunStep executes (or resumes) one optimizer step: the parameter-shift
// gradient over the current minibatch, the optimizer update, cursor
// advance, and loss recording. On qpu.ErrPreempted the gradient accumulator
// retains completed work units; a subsequent RunStep (or a restored
// incarnation) continues where it stopped.
func (t *Trainer) RunStep() error {
	batch := t.currentBatch()
	eval := grad.EvaluatorFunc(func(theta []float64, shift circuit.Shift) (float64, error) {
		return t.cfg.Task.EstimateLoss(t.backend, t.cfg.Circuit, theta, shift, batch, t.cfg.Shots)
	})
	var hookErr error
	hook := func(i, total int) error {
		fire := t.tracker.NoteUnit(t.backend.Clock())
		if !fire && t.cfg.HintWindow > 0 && t.tracker.Dirty() &&
			t.backend.FailureWithin(t.cfg.HintWindow) {
			fire = true // session expiry imminent: save what we have
		}
		if fire {
			if err := t.checkpoint(); err != nil {
				hookErr = err
				return err
			}
		}
		return nil
	}
	if err := grad.ParameterShift(t.cfg.Circuit, t.theta, eval, t.acc, hook); err != nil {
		if hookErr != nil {
			return fmt.Errorf("train: checkpoint during step %d: %w", t.step, hookErr)
		}
		return err
	}
	g, err := t.acc.Gradient(t.cfg.Circuit)
	if err != nil {
		return err
	}
	t.opt.Step(t.theta, g)
	t.acc.Reset()
	t.advanceCursor()
	t.step++

	exact := t.ExactLoss()
	t.lossHistory = append(t.lossHistory, exact)
	if exact < t.bestLoss {
		t.bestLoss = exact
		t.bestParams = append(t.bestParams[:0], t.theta...)
	}
	if t.tracker.NoteStep(t.backend.Clock()) {
		if err := t.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// errInventoryStop interrupts a gradient run deliberately.
var errInventoryStop = errors.New("train: inventory fill complete")

// errUnitStop interrupts RunUnits after its quota.
var errUnitStop = errors.New("train: unit quota reached")

// RunUnits executes up to k incomplete gradient work units of the current
// step without completing the step (no optimizer update). The next RunStep
// continues from the accumulator. Used by experiments that measure
// sub-step checkpoint behaviour.
func (t *Trainer) RunUnits(k int) error {
	if k < 1 {
		return fmt.Errorf("train: RunUnits(%d)", k)
	}
	batch := t.currentBatch()
	eval := grad.EvaluatorFunc(func(theta []float64, shift circuit.Shift) (float64, error) {
		return t.cfg.Task.EstimateLoss(t.backend, t.cfg.Circuit, theta, shift, batch, t.cfg.Shots)
	})
	count := 0
	hook := func(i, tot int) error {
		count++
		if count >= k {
			return errUnitStop
		}
		return nil
	}
	err := grad.ParameterShift(t.cfg.Circuit, t.theta, eval, t.acc, hook)
	if err != nil && !errors.Is(err, errUnitStop) {
		return err
	}
	return nil
}

// PendingUnits returns how many gradient work units of the current step
// have completed (0 at step boundaries).
func (t *Trainer) PendingUnits() int { return t.acc.CompletedUnits() }

// FillAccumulatorForInventory executes all but one work unit of the next
// gradient, leaving the accumulator nearly full so a subsequent Capture
// exhibits the worst-case mid-step checkpoint footprint. It is a
// measurement helper for the state-inventory experiment, not part of the
// training flow.
func (t *Trainer) FillAccumulatorForInventory() error {
	batch := t.currentBatch()
	eval := grad.EvaluatorFunc(func(theta []float64, shift circuit.Shift) (float64, error) {
		return t.cfg.Task.EstimateLoss(t.backend, t.cfg.Circuit, theta, shift, batch, t.cfg.Shots)
	})
	total := t.acc.Len()
	hook := func(i, tot int) error {
		if t.acc.CompletedUnits() >= total-1 {
			return errInventoryStop
		}
		return nil
	}
	if err := grad.ParameterShift(t.cfg.Circuit, t.theta, eval, t.acc, hook); err != nil && !errors.Is(err, errInventoryStop) {
		return err
	}
	return nil
}

// Run executes steps until maxSteps total steps have completed, the target
// loss is reached, or an error (including preemption) occurs. It returns
// the number of steps completed by this call.
func (t *Trainer) Run(maxSteps int) (int, error) {
	ran := 0
	for int(t.step) < maxSteps {
		if t.cfg.TargetEnabled && len(t.lossHistory) > 0 &&
			t.lossHistory[len(t.lossHistory)-1] <= t.cfg.TargetLoss {
			return ran, nil
		}
		if err := t.RunStep(); err != nil {
			return ran, err
		}
		ran++
	}
	return ran, nil
}

// TargetReached reports whether the most recent exact loss met the target.
func (t *Trainer) TargetReached() bool {
	return t.cfg.TargetEnabled && len(t.lossHistory) > 0 &&
		t.lossHistory[len(t.lossHistory)-1] <= t.cfg.TargetLoss
}

// Capture assembles the complete training state for checkpointing.
func (t *Trainer) Capture() (*core.TrainingState, error) {
	optBlob, err := t.opt.MarshalBinary()
	if err != nil {
		return nil, err
	}
	rngBlob, err := t.rngs.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var accBlob []byte
	if t.acc.CompletedUnits() > 0 {
		accBlob, err = t.acc.MarshalBinary()
		if err != nil {
			return nil, err
		}
	}
	st := core.NewTrainingState()
	st.Step = t.step
	st.Epoch = t.epoch
	st.Params = append([]float64{}, t.theta...)
	st.Optimizer = optBlob
	st.RNG = rngBlob
	if accBlob != nil {
		st.GradAccum = accBlob
	}
	st.DataPerm = make([]uint32, len(t.perm))
	for i, v := range t.perm {
		st.DataPerm[i] = uint32(v)
	}
	st.DataPos = uint32(t.pos)
	st.LossHistory = append([]float64{}, t.lossHistory...)
	st.BestLoss = t.bestLoss
	st.BestParams = append([]float64{}, t.bestParams...)
	snap := t.backend.Snapshot()
	st.Counters = core.Counters{
		QPUClockNS:  int64(snap.Clock),
		TotalShots:  snap.TotalShots,
		WastedShots: snap.WastedShots,
		Jobs:        snap.Jobs,
		Preemptions: snap.Preemptions,
	}
	st.Meta = t.cfg.Meta()
	st.Meta.CreatedUnixNano = 0 // deterministic snapshots; provenance is optional
	return st, nil
}

// Restore loads a captured state into this trainer. The state's metadata
// must match the trainer's configuration.
func (t *Trainer) Restore(st *core.TrainingState) error {
	live := t.cfg.Meta()
	snapMeta := st.Meta
	snapMeta.CreatedUnixNano = 0
	live.CreatedUnixNano = 0
	if err := snapMeta.CompatibleWith(live); err != nil {
		return err
	}
	if len(st.Params) != t.cfg.Circuit.NumParams {
		return fmt.Errorf("train: snapshot has %d params, circuit wants %d", len(st.Params), t.cfg.Circuit.NumParams)
	}
	if err := t.opt.UnmarshalBinary(st.Optimizer); err != nil {
		return err
	}
	if err := t.rngs.UnmarshalBinary(st.RNG); err != nil {
		return err
	}
	if len(st.GradAccum) > 0 {
		if err := t.acc.UnmarshalBinary(st.GradAccum); err != nil {
			return err
		}
		if t.acc.Len() != len(grad.Plan(t.cfg.Circuit)) {
			return fmt.Errorf("train: snapshot accumulator sized %d, plan is %d", t.acc.Len(), len(grad.Plan(t.cfg.Circuit)))
		}
	} else {
		t.acc.Reset()
	}
	t.step = st.Step
	t.epoch = st.Epoch
	t.theta = append(t.theta[:0], st.Params...)
	t.perm = make([]int, len(st.DataPerm))
	for i, v := range st.DataPerm {
		t.perm[i] = int(v)
	}
	t.pos = int(st.DataPos)
	t.lossHistory = append([]float64{}, st.LossHistory...)
	t.bestLoss = st.BestLoss
	t.bestParams = append([]float64{}, st.BestParams...)
	t.backend.RestoreCounters(qpu.Counters{
		Clock:       time.Duration(st.Counters.QPUClockNS),
		TotalShots:  st.Counters.TotalShots,
		WastedShots: st.Counters.WastedShots,
		Jobs:        st.Counters.Jobs,
		Preemptions: st.Counters.Preemptions,
	})
	t.tracker.NoteCheckpoint(t.backend.Clock())
	return nil
}

// ResumeLatestBackendOptions builds a trainer from cfg and restores the
// newest compatible checkpoint in b into it — a directory
// (core.DirBackend), or e.g. one job's view of a multi-tenant checkpoint
// Service (core.Service.JobView), where each job resumes its own manifest
// namespace while chunk reads hit the shared store. It returns
// core.ErrNoCheckpoint when nothing usable exists (caller starts fresh).
// opts sizes the restore engine (see core.RestoreOptions); the restored
// trainer state is bitwise-identical under every worker count.
func ResumeLatestBackendOptions(cfg Config, b storage.Backend, opts core.RestoreOptions) (*Trainer, core.LoadReport, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, core.LoadReport{}, err
	}
	live := cfg.Meta()
	st, report, err := core.LoadLatestBackendOptions(b, &live, opts)
	if err != nil {
		return nil, report, err
	}
	if err := t.Restore(st); err != nil {
		return nil, report, err
	}
	return t, report, nil
}
