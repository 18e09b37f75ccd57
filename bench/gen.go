package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// shape sizes one synthetic training state. The defaults give the
// ≈2.0 MiB payload every workload is specified against; tests shrink
// it so the whole package runs in seconds.
type shape struct {
	Params    int // float64 circuit parameters
	PermLen   int // DataPerm entries
	GradBytes int // GradAccum blob
	Window    int // params one substep touches
}

var fullShape = shape{Params: 65536, PermLen: 4096, GradBytes: 4096, Window: 64}

const (
	optHeaderBytes = 64  // Adam-shaped blob: header, then (m, v) float64 pairs
	rngBytes       = 200 // serialized RNG streams
)

// splitmix is the mutation PRNG: a few ns per draw, so perturbing all
// 196 608 floats of a full step stays well under 1 ms and the generator
// does not show up in the save-phase CPU it shares a core with.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// small returns a perturbation in [-1e-3, 1e-3) with a fully random
// mantissa, so perturbed floats stay as incompressible as fresh ones.
func (s *splitmix) small() float64 {
	return (float64(int64(s.next())) / (1 << 63)) * 1e-3
}

// stream is one trainer's seeded state sequence: newStream draws the
// base state, substep and fullstep advance it in place. The program
// under test only ever sees the states; the seed never reaches it.
type stream struct {
	sh     shape
	mut    splitmix
	state  *core.TrainingState
	cursor int // next substep window start
}

// newStream builds the base state from seed. Trainers that pass the
// same seed and different lanes start from identical bytes (so their
// first anchors dedup across tenants) but mutate disjoint parameter
// windows with independent perturbations.
func newStream(seed int64, sh shape, lane, lanes int) *stream {
	r := rand.New(rand.NewSource(seed))
	s := core.NewTrainingState()
	s.Params = make([]float64, sh.Params)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	// Random moments, not zeros: an all-zero optimizer blob makes flate
	// unrealistically cheap and the anchor save unrealistically small.
	s.Optimizer = make([]byte, optHeaderBytes+16*sh.Params)
	copy(s.Optimizer, "adam\x00bench")
	for i := 0; i < sh.Params; i++ {
		off := optHeaderBytes + 16*i
		binary.LittleEndian.PutUint64(s.Optimizer[off:], math.Float64bits(0.1*r.NormFloat64()))
		binary.LittleEndian.PutUint64(s.Optimizer[off+8:], math.Float64bits(0.01*math.Abs(r.NormFloat64())))
	}
	s.RNG = make([]byte, rngBytes)
	r.Read(s.RNG)
	s.GradAccum = make([]byte, sh.GradBytes)
	r.Read(s.GradAccum)
	s.BestParams = append([]float64{}, s.Params...)
	s.BestLoss = 1.0
	perm := r.Perm(sh.PermLen)
	s.DataPerm = make([]uint32, sh.PermLen)
	for i, v := range perm {
		s.DataPerm[i] = uint32(v)
	}
	s.Meta = core.Meta{
		FormatVersion:   core.FormatVersion,
		CircuitFP:       "bench-circuit",
		ProblemFP:       "bench-problem",
		OptimizerName:   "adam",
		Extra:           fmt.Sprintf("params=%d", sh.Params),
		CreatedUnixNano: 1, // fixed: wall-clock provenance would break run-to-run byte equality
	}
	return &stream{
		sh:     sh,
		mut:    splitmix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(lane) + 1),
		state:  s,
		cursor: lane * (sh.Params / lanes),
	}
}

// perturb nudges params[lo:hi] and their (m, v) moments.
func (g *stream) perturb(lo, hi int) {
	s := g.state
	for i := lo; i < hi; i++ {
		s.Params[i] += g.mut.small()
		off := optHeaderBytes + 16*i
		m := math.Float64frombits(binary.LittleEndian.Uint64(s.Optimizer[off:])) + g.mut.small()
		v := math.Float64frombits(binary.LittleEndian.Uint64(s.Optimizer[off+8:])) + math.Abs(g.mut.small())
		binary.LittleEndian.PutUint64(s.Optimizer[off:], math.Float64bits(m))
		binary.LittleEndian.PutUint64(s.Optimizer[off+8:], math.Float64bits(v))
	}
}

// substep is the paper's sub-step regime: one circuit evaluation moved a
// Window-param slice and rewrote the gradient accumulator; nothing
// grows, ≈0.3 % of the payload is dirty.
func (g *stream) substep() {
	s := g.state
	lo := g.cursor
	hi := min(lo+g.sh.Window, g.sh.Params)
	g.perturb(lo, hi)
	g.cursor = hi % g.sh.Params
	for i := 0; i+8 <= len(s.GradAccum); i += 8 {
		binary.LittleEndian.PutUint64(s.GradAccum[i:], g.mut.next())
	}
	s.Step++
	s.Counters.TotalShots += 1024
	s.Counters.Jobs++
}

// fullstep is a whole optimizer step: every param and moment moves, the
// best-so-far copy follows, and the loss trace grows by one entry —
// 100 % dirty with a growing tail.
func (g *stream) fullstep() {
	s := g.state
	g.perturb(0, g.sh.Params)
	copy(s.BestParams, s.Params)
	s.BestLoss -= math.Abs(g.mut.small())
	s.LossHistory = append(s.LossHistory, s.BestLoss)
	s.Step++
	s.Epoch = s.Step / uint64(g.sh.PermLen)
	s.DataPos = uint32(s.Step % uint64(g.sh.PermLen))
	s.Counters.TotalShots += 1024 * uint64(g.sh.Params)
	s.Counters.Jobs++
}
