// Package train implements the hybrid quantum-classical training loop: a
// Trainer drives dataset → circuit → QPU → parameter-shift gradient →
// optimizer, with checkpoint capture/restore hooks at optimizer-step and
// gradient-work-unit (sub-step) granularity. The crash/resume contract —
// restore from a checkpoint and continue bitwise-identically to an
// uninterrupted run — is the system property every experiment builds on.
// ResumeLatestBackendOptions is the one way back in: it builds a Trainer
// and restores the newest compatible checkpoint of a storage.Backend
// (core.DirBackend for a directory) into it.
package train

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/dataset"
	"repro/internal/observable"
	"repro/internal/qpu"
	"repro/internal/quantum"
)

// Task defines a training objective evaluated through the QPU backend. All
// losses are minimized.
type Task interface {
	// Name is a short label ("vqe", "state-learning", "classify").
	Name() string
	// Fingerprint identifies the problem instance for checkpoint metadata.
	Fingerprint() string
	// NumSamples is the dataset size, or 0 for problem-level losses (VQE).
	NumSamples() int
	// EstimateLoss evaluates the loss at theta (with optional occurrence
	// shift) on the given minibatch through the backend. It is billed
	// (shots, queue time) and can fail with qpu.ErrPreempted. batch is
	// ignored when NumSamples() == 0.
	EstimateLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64, shift circuit.Shift, batch []int, shots int) (float64, error)
	// ExactLoss is the noiseless full-problem oracle (free; used for
	// progress recording and experiment measurement, never for training
	// decisions that would break the hybrid model).
	ExactLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64) float64
}

// VQETask minimizes ⟨H⟩ for a Hamiltonian — the variational quantum
// eigensolver objective. With Grouped set, energies are estimated with
// qubit-wise-commuting measurement grouping (fewer shot batches per
// evaluation); the flag is part of the task fingerprint because it changes
// the shot-noise trajectory.
type VQETask struct {
	H       observable.Hamiltonian
	Grouped bool
}

// NewVQETask validates the Hamiltonian and wraps it as a Task.
func NewVQETask(h observable.Hamiltonian) (*VQETask, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &VQETask{H: h}, nil
}

// NewGroupedVQETask is NewVQETask with measurement grouping enabled.
func NewGroupedVQETask(h observable.Hamiltonian) (*VQETask, error) {
	t, err := NewVQETask(h)
	if err != nil {
		return nil, err
	}
	t.Grouped = true
	return t, nil
}

// Name implements Task.
func (t *VQETask) Name() string { return "vqe" }

// Fingerprint implements Task.
func (t *VQETask) Fingerprint() string {
	fp := t.H.Fingerprint()
	if t.Grouped {
		fp += ";grouped"
	}
	return fp
}

// NumSamples implements Task.
func (t *VQETask) NumSamples() int { return 0 }

// EstimateLoss implements Task.
func (t *VQETask) EstimateLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64, shift circuit.Shift, _ []int, shots int) (float64, error) {
	if t.Grouped {
		return b.EstimateEnergyGrouped(c, theta, shift, t.H, shots)
	}
	return b.EstimateEnergy(c, theta, shift, t.H, shots)
}

// ExactLoss implements Task.
func (t *VQETask) ExactLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64) float64 {
	return b.ExactEnergy(c, theta, t.H)
}

// StateLearningTask minimizes 1 − mean fidelity between the circuit output
// on each input state and the corresponding target — the DQNN-style
// "characterize an unknown device" objective.
type StateLearningTask struct {
	Data *dataset.StatePairs
}

// NewStateLearningTask wraps a state-pair dataset as a Task.
func NewStateLearningTask(d *dataset.StatePairs) (*StateLearningTask, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("train: empty state-pair dataset")
	}
	return &StateLearningTask{Data: d}, nil
}

// Name implements Task.
func (t *StateLearningTask) Name() string { return "state-learning" }

// Fingerprint implements Task.
func (t *StateLearningTask) Fingerprint() string { return t.Data.Fingerprint() }

// NumSamples implements Task.
func (t *StateLearningTask) NumSamples() int { return t.Data.Len() }

// EstimateLoss implements Task. Each batch element costs one fidelity
// estimation job.
func (t *StateLearningTask) EstimateLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64, shift circuit.Shift, batch []int, shots int) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("train: empty batch")
	}
	var sum float64
	for _, idx := range batch {
		if idx < 0 || idx >= t.Data.Len() {
			return 0, fmt.Errorf("train: batch index %d out of range", idx)
		}
		f, err := b.EstimateFidelity(c, theta, shift, t.Data.Inputs[idx], t.Data.Targets[idx], shots)
		if err != nil {
			return 0, err
		}
		sum += 1 - f
	}
	return sum / float64(len(batch)), nil
}

// ExactLoss implements Task: 1 − mean exact fidelity over the full dataset.
func (t *StateLearningTask) ExactLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64) float64 {
	var sum float64
	for i := 0; i < t.Data.Len(); i++ {
		sum += 1 - b.ExactFidelity(c, theta, t.Data.Inputs[i], t.Data.Targets[i])
	}
	return sum / float64(t.Data.Len())
}

// ClassificationTask minimizes the margin loss (1 − y·⟨Z_readout⟩)/2 of a
// quantum classifier: features are angle-encoded in a fixed prefix circuit,
// the trainable ansatz follows, and the prediction is the Z expectation of
// the readout qubit.
type ClassificationTask struct {
	Data    *dataset.Classification
	Readout int // readout qubit index
}

// NewClassificationTask wraps a classification dataset.
func NewClassificationTask(d *dataset.Classification, readout int) (*ClassificationTask, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("train: empty classification dataset")
	}
	if readout < 0 {
		return nil, fmt.Errorf("train: negative readout qubit")
	}
	return &ClassificationTask{Data: d, Readout: readout}, nil
}

// Name implements Task.
func (t *ClassificationTask) Name() string { return "classify" }

// Fingerprint implements Task.
func (t *ClassificationTask) Fingerprint() string { return t.Data.Fingerprint() }

// NumSamples implements Task.
func (t *ClassificationTask) NumSamples() int { return t.Data.Len() }

// combined builds encoder(x) + ansatz and translates an ansatz-relative
// occurrence shift to the combined circuit.
func (t *ClassificationTask) combined(c *circuit.Circuit, x []float64, shift circuit.Shift) (*circuit.Circuit, circuit.Shift) {
	enc := circuit.AngleEncoder(c.Qubits, x)
	comb := circuit.Concat(enc, c)
	if shift.OpIndex >= 0 {
		shift.OpIndex += enc.NumGates()
	}
	return comb, shift
}

// EstimateLoss implements Task.
func (t *ClassificationTask) EstimateLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64, shift circuit.Shift, batch []int, shots int) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("train: empty batch")
	}
	if t.Readout >= c.Qubits {
		return 0, fmt.Errorf("train: readout qubit %d beyond circuit width %d", t.Readout, c.Qubits)
	}
	obs := observable.SingleZ(c.Qubits, t.Readout)
	var sum float64
	for _, idx := range batch {
		if idx < 0 || idx >= t.Data.Len() {
			return 0, fmt.Errorf("train: batch index %d out of range", idx)
		}
		comb, cshift := t.combined(c, t.Data.Features[idx], shift)
		z, err := b.EstimateEnergy(comb, theta, cshift, obs, shots)
		if err != nil {
			return 0, err
		}
		sum += (1 - t.Data.Labels[idx]*z) / 2
	}
	return sum / float64(len(batch)), nil
}

// ExactLoss implements Task.
func (t *ClassificationTask) ExactLoss(b *qpu.Backend, c *circuit.Circuit, theta []float64) float64 {
	obs := observable.SingleZ(c.Qubits, t.Readout)
	var sum float64
	for i := 0; i < t.Data.Len(); i++ {
		comb, _ := t.combined(c, t.Data.Features[i], circuit.NoShift)
		z := b.ExactEnergy(comb, theta, obs)
		sum += (1 - t.Data.Labels[i]*z) / 2
	}
	return sum / float64(t.Data.Len())
}

// ExactLossShifted is ExactLoss with a per-occurrence shift applied —
// exposed so tests can verify the shift translation through the per-sample
// encoder prefix.
func (t *ClassificationTask) ExactLossShifted(b *qpu.Backend, c *circuit.Circuit, theta []float64, shift circuit.Shift) float64 {
	obs := observable.SingleZ(c.Qubits, t.Readout)
	var sum float64
	for i := 0; i < t.Data.Len(); i++ {
		comb, cshift := t.combined(c, t.Data.Features[i], shift)
		s := quantum.New(comb.Qubits)
		comb.Run(s, theta, cshift)
		z := obs.Expectation(s)
		sum += (1 - t.Data.Labels[i]*z) / 2
	}
	return sum / float64(t.Data.Len())
}

// Accuracy reports the exact classification accuracy at theta.
func (t *ClassificationTask) Accuracy(b *qpu.Backend, c *circuit.Circuit, theta []float64) float64 {
	obs := observable.SingleZ(c.Qubits, t.Readout)
	correct := 0
	for i := 0; i < t.Data.Len(); i++ {
		comb, _ := t.combined(c, t.Data.Features[i], circuit.NoShift)
		z := b.ExactEnergy(comb, theta, obs)
		if (z >= 0) == (t.Data.Labels[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(t.Data.Len())
}
