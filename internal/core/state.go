// Package core is the checkpoint engine for hybrid quantum-classical
// training — the primary contribution of "Quantum Neural Networks Need
// Checkpointing" (HotStorage 2025) as reconstructed in DESIGN.md.
//
// The package captures the complete training state (circuit parameters,
// optimizer moments, RNG streams, the mid-step gradient accumulator, data
// cursor, loss history, best-so-far state and QPU billing counters) in a
// versioned, integrity-checked binary snapshot; persists it through any
// storage.Backend with full, delta-chained, chunked content-addressed, and
// asynchronous strategies (a configurable worker pipeline chunks,
// deduplicates, compresses and writes concurrently); and recovers the
// newest valid snapshot after a crash, guaranteeing bitwise-identical
// resumption. What a store's keys look like, and how every scanner of one
// (retention, lifecycle, GC, recovery, compaction) lists and groups its
// snapshots, is in catalog.go alone.
//
// Every operation on a store has one entry point, and it takes a
// storage.Backend: LoadLatestBackendOptions, VerifyBackend,
// ListSnapshotsBackend, CompactBackend. DirBackend opens an existing
// checkpoint directory as that backend, so reports name backend keys,
// never file paths (DESIGN.md §2, "Entry points").
//
// Layering: core depends only on internal/storage. Domain objects
// (optimizer, RNG set, gradient accumulator) arrive as the opaque binary
// blobs their own packages produce, plus fingerprints that let resume-time
// validation reject checkpoints from a different ansatz, problem or
// hyperparameter configuration.
package core

import (
	"fmt"
	"math"
)

// FormatVersion is the on-disk snapshot format version. Decoders reject
// snapshots from other versions.
const FormatVersion uint32 = 1

// Meta identifies the run a snapshot belongs to. Resume refuses to load a
// snapshot whose fingerprints differ from the live configuration.
type Meta struct {
	FormatVersion uint32
	// CircuitFP fingerprints the ansatz structure (circuit.Fingerprint).
	CircuitFP string
	// ProblemFP fingerprints the training problem (Hamiltonian fingerprint
	// or dataset fingerprint).
	ProblemFP string
	// OptimizerName is the optimizer kind ("adam", ...).
	OptimizerName string
	// Extra carries free-form configuration (hyperparameters) for human
	// inspection; it participates in validation verbatim.
	Extra string
	// CreatedUnixNano is informational wall-clock provenance.
	CreatedUnixNano int64
}

// Counters carries the QPU billing counters that must survive a crash so
// resumed runs report cumulative cost truthfully.
type Counters struct {
	QPUClockNS  int64
	TotalShots  uint64
	WastedShots uint64
	Jobs        uint64
	Preemptions uint64
}

// TrainingState is everything needed for bitwise-identical resume of a
// hybrid training run. See DESIGN.md §3 for the inventory rationale.
type TrainingState struct {
	// Step is the optimizer step counter; Epoch the dataset pass counter.
	Step  uint64
	Epoch uint64

	// Params is the circuit parameter vector θ.
	Params []float64

	// Optimizer is the serialized optimizer state
	// (optimizer.Optimizer.MarshalBinary).
	Optimizer []byte

	// RNG is the serialized rng.Set covering every randomness consumer.
	RNG []byte

	// GradAccum is the serialized mid-step gradient accumulator
	// (grad.Accumulator.MarshalBinary); empty when no step is in flight.
	// This is the sub-step state that bounds lost work to one circuit
	// evaluation.
	GradAccum []byte

	// DataPerm and DataPos are the current epoch's shuffle permutation and
	// the position within it.
	DataPerm []uint32
	DataPos  uint32

	// LossHistory is the per-step training loss trace.
	LossHistory []float64

	// BestLoss and BestParams are the early-stopping state.
	BestLoss   float64
	BestParams []float64

	// Counters are the QPU billing counters.
	Counters Counters

	// Meta identifies the run configuration.
	Meta Meta
}

// NewTrainingState returns a state with the invariants the codec expects
// (non-nil slices, +Inf best loss, current format version).
func NewTrainingState() *TrainingState {
	return &TrainingState{
		Params:      []float64{},
		Optimizer:   []byte{},
		RNG:         []byte{},
		GradAccum:   []byte{},
		DataPerm:    []uint32{},
		LossHistory: []float64{},
		BestParams:  []float64{},
		BestLoss:    math.Inf(1),
		Meta:        Meta{FormatVersion: FormatVersion},
	}
}

// Validate checks internal consistency.
func (s *TrainingState) Validate() error {
	if s.Meta.FormatVersion != FormatVersion {
		return fmt.Errorf("core: state format version %d, want %d", s.Meta.FormatVersion, FormatVersion)
	}
	for i, v := range s.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite parameter %d: %v", i, v)
		}
	}
	if len(s.BestParams) != 0 && len(s.BestParams) != len(s.Params) {
		return fmt.Errorf("core: best-params length %d vs params %d", len(s.BestParams), len(s.Params))
	}
	if int(s.DataPos) > len(s.DataPerm) {
		return fmt.Errorf("core: data cursor %d beyond permutation length %d", s.DataPos, len(s.DataPerm))
	}
	return nil
}

// Clone deep-copies the state. The async writer snapshots via Clone so the
// trainer can keep mutating its live state while the write is in flight.
func (s *TrainingState) Clone() *TrainingState {
	cp := *s
	cp.Params = append([]float64{}, s.Params...)
	cp.Optimizer = append([]byte{}, s.Optimizer...)
	cp.RNG = append([]byte{}, s.RNG...)
	cp.GradAccum = append([]byte{}, s.GradAccum...)
	cp.DataPerm = append([]uint32{}, s.DataPerm...)
	cp.LossHistory = append([]float64{}, s.LossHistory...)
	cp.BestParams = append([]float64{}, s.BestParams...)
	return &cp
}

// Equal reports bitwise equality of two states (NaN-safe float comparison by
// bits).
func (s *TrainingState) Equal(o *TrainingState) bool {
	if s.Step != o.Step || s.Epoch != o.Epoch ||
		s.DataPos != o.DataPos ||
		math.Float64bits(s.BestLoss) != math.Float64bits(o.BestLoss) ||
		s.Counters != o.Counters || s.Meta != o.Meta {
		return false
	}
	if !floatsEqual(s.Params, o.Params) || !floatsEqual(s.LossHistory, o.LossHistory) ||
		!floatsEqual(s.BestParams, o.BestParams) {
		return false
	}
	if string(s.Optimizer) != string(o.Optimizer) ||
		string(s.RNG) != string(o.RNG) ||
		string(s.GradAccum) != string(o.GradAccum) {
		return false
	}
	if len(s.DataPerm) != len(o.DataPerm) {
		return false
	}
	for i := range s.DataPerm {
		if s.DataPerm[i] != o.DataPerm[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// CompatibleWith reports whether a snapshot's meta matches the live run
// configuration; the returned error explains the first mismatch.
func (m Meta) CompatibleWith(live Meta) error {
	if m.FormatVersion != live.FormatVersion {
		return fmt.Errorf("core: format version %d vs %d", m.FormatVersion, live.FormatVersion)
	}
	if m.CircuitFP != live.CircuitFP {
		return fmt.Errorf("core: circuit fingerprint mismatch (snapshot %.12s… vs live %.12s…)", m.CircuitFP, live.CircuitFP)
	}
	if m.ProblemFP != live.ProblemFP {
		return fmt.Errorf("core: problem fingerprint mismatch")
	}
	if m.OptimizerName != live.OptimizerName {
		return fmt.Errorf("core: optimizer %q vs %q", m.OptimizerName, live.OptimizerName)
	}
	if m.Extra != live.Extra {
		return fmt.Errorf("core: hyperparameter configuration mismatch")
	}
	return nil
}

// SizeBreakdown itemizes the serialized size of each state component — the
// data behind Table 1 (state inventory).
type SizeBreakdown struct {
	Params      int
	Optimizer   int
	RNG         int
	GradAccum   int
	DataCursor  int
	LossHistory int
	Best        int
	Counters    int
	Meta        int
	Total       int
}

// Breakdown returns the per-component serialized sizes of the canonical
// encoding.
func (s *TrainingState) Breakdown() SizeBreakdown {
	b := SizeBreakdown{
		Params:      8 * len(s.Params),
		Optimizer:   len(s.Optimizer),
		RNG:         len(s.RNG),
		GradAccum:   len(s.GradAccum),
		DataCursor:  4*len(s.DataPerm) + 4,
		LossHistory: 8 * len(s.LossHistory),
		Best:        8 + 8*len(s.BestParams),
		Counters:    8 * 5,
		Meta:        4 + len(s.Meta.CircuitFP) + len(s.Meta.ProblemFP) + len(s.Meta.OptimizerName) + len(s.Meta.Extra) + 8,
	}
	b.Total = b.Params + b.Optimizer + b.RNG + b.GradAccum + b.DataCursor +
		b.LossHistory + b.Best + b.Counters + b.Meta
	return b
}
