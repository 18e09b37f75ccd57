package quantum

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/qmath"
	"repro/internal/rng"
)

const tol = 1e-12

func TestNewIsZeroState(t *testing.T) {
	s := New(3)
	if s.Qubits() != 3 || s.Dim() != 8 {
		t.Fatalf("dims wrong: %d qubits, dim %d", s.Qubits(), s.Dim())
	}
	if s.Probability(0) != 1 {
		t.Errorf("P(|000⟩) = %v, want 1", s.Probability(0))
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Errorf("norm = %v", s.Norm())
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestXFlipsQubit(t *testing.T) {
	s := New(2)
	s.Apply1(&GateX, 0)
	if math.Abs(s.Probability(0b01)-1) > tol {
		t.Errorf("X on qubit 0: P(01) = %v", s.Probability(0b01))
	}
	s.Apply1(&GateX, 1)
	if math.Abs(s.Probability(0b11)-1) > tol {
		t.Errorf("X on qubit 1: P(11) = %v", s.Probability(0b11))
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := New(1)
	s.Apply1(&GateH, 0)
	if math.Abs(s.Probability(0)-0.5) > tol || math.Abs(s.Probability(1)-0.5) > tol {
		t.Errorf("H|0⟩ probabilities: %v, %v", s.Probability(0), s.Probability(1))
	}
	// H is self-inverse.
	s.Apply1(&GateH, 0)
	if math.Abs(s.Probability(0)-1) > tol {
		t.Errorf("HH|0⟩ != |0⟩")
	}
}

func TestBellState(t *testing.T) {
	s := New(2)
	s.Apply1(&GateH, 0)
	s.CNOT(0, 1)
	if math.Abs(s.Probability(0b00)-0.5) > tol || math.Abs(s.Probability(0b11)-0.5) > tol {
		t.Errorf("Bell state wrong: P(00)=%v P(11)=%v", s.Probability(0b00), s.Probability(0b11))
	}
	if s.Probability(0b01) > tol || s.Probability(0b10) > tol {
		t.Errorf("Bell state has weight on 01/10")
	}
}

func TestCNOTTruthTable(t *testing.T) {
	// CNOT(control=0, target=1): |c t⟩ indexing is bit1=target, bit0=control.
	cases := []struct{ in, want int }{
		{0b00, 0b00},
		{0b01, 0b11}, // control set -> target flips
		{0b10, 0b10},
		{0b11, 0b01},
	}
	for _, c := range cases {
		s := New(2)
		if c.in&1 != 0 {
			s.Apply1(&GateX, 0)
		}
		if c.in&2 != 0 {
			s.Apply1(&GateX, 1)
		}
		s.CNOT(0, 1)
		if math.Abs(s.Probability(c.want)-1) > tol {
			t.Errorf("CNOT |%02b⟩: want |%02b⟩, got %v", c.in, c.want, s)
		}
	}
}

func TestCZSign(t *testing.T) {
	s := New(2)
	s.Apply1(&GateH, 0)
	s.Apply1(&GateH, 1)
	s.CZ(0, 1)
	// Amplitude of |11⟩ should be −1/2, others +1/2.
	if qmath.AlmostEqual(s.Amplitudes()[3], complex(-0.5, 0), tol) == false {
		t.Errorf("CZ amp(11) = %v, want -0.5", s.Amplitudes()[3])
	}
	if qmath.AlmostEqual(s.Amplitudes()[0], complex(0.5, 0), tol) == false {
		t.Errorf("CZ amp(00) = %v, want 0.5", s.Amplitudes()[0])
	}
}

func TestSWAP(t *testing.T) {
	s := New(3)
	s.Apply1(&GateX, 0) // |001⟩
	s.SWAP(0, 2)
	if math.Abs(s.Probability(0b100)-1) > tol {
		t.Errorf("SWAP failed: %v", s)
	}
	s.SWAP(0, 0) // no-op
	if math.Abs(s.Probability(0b100)-1) > tol {
		t.Errorf("SWAP(q,q) changed state")
	}
}

func TestPauliFastPathsMatchApply1(t *testing.T) {
	r := rng.New(3)
	mk := func() *State { return RandomState(3, r) }
	type fastFn func(*State)
	cases := []struct {
		name string
		fast fastFn
		mat  *[4]complex128
	}{
		{"X", func(s *State) { s.ApplyPauliX(1) }, &GateX},
		{"Y", func(s *State) { s.ApplyPauliY(1) }, &GateY},
		{"Z", func(s *State) { s.ApplyPauliZ(1) }, &GateZ},
	}
	for _, c := range cases {
		a := mk()
		b := a.Clone()
		c.fast(a)
		b.Apply1(c.mat, 1)
		if f := a.Fidelity(b); math.Abs(f-1) > 1e-10 {
			t.Errorf("%s fast path disagrees with Apply1: fidelity %v", c.name, f)
		}
		// Check amplitudes, not just fidelity (catches phase errors).
		for i := range a.Amplitudes() {
			if cmplx.Abs(a.Amplitudes()[i]-b.Amplitudes()[i]) > 1e-10 {
				t.Errorf("%s fast path amp %d: %v vs %v", c.name, i, a.Amplitudes()[i], b.Amplitudes()[i])
				break
			}
		}
	}
}

func TestCNOTMatchesApply2(t *testing.T) {
	// CNOT with control = low bit of the 4×4 basis (q0), target = q1:
	// matrix maps |q1 q0⟩: 01->11, 11->01.
	cnotMat := [16]complex128{
		1, 0, 0, 0,
		0, 0, 0, 1,
		0, 0, 1, 0,
		0, 1, 0, 0,
	}
	r := rng.New(4)
	a := RandomState(3, r)
	b := a.Clone()
	a.CNOT(0, 2)
	b.Apply2(&cnotMat, 0, 2)
	for i := range a.Amplitudes() {
		if cmplx.Abs(a.Amplitudes()[i]-b.Amplitudes()[i]) > 1e-10 {
			t.Fatalf("CNOT vs Apply2 mismatch at %d", i)
		}
	}
}

func TestControlled1MatchesCNOT(t *testing.T) {
	r := rng.New(5)
	a := RandomState(3, r)
	b := a.Clone()
	a.CNOT(1, 0)
	b.ApplyControlled1(&GateX, 1, 0)
	for i := range a.Amplitudes() {
		if cmplx.Abs(a.Amplitudes()[i]-b.Amplitudes()[i]) > 1e-10 {
			t.Fatalf("ApplyControlled1(X) != CNOT at %d", i)
		}
	}
}

func TestRotationGatesAreUnitary(t *testing.T) {
	for _, theta := range []float64{0, 0.3, math.Pi / 2, math.Pi, 5.1} {
		for name, m := range map[string][4]complex128{
			"RX": RX(theta), "RY": RY(theta), "RZ": RZ(theta),
			"Phase": Phase(theta), "U3": U3(theta, 0.2, 1.1),
		} {
			if !Mat1(m).IsUnitary(1e-10) {
				t.Errorf("%s(%v) not unitary", name, theta)
			}
		}
		for name, m := range map[string][16]complex128{
			"RXX": RXX(theta), "RYY": RYY(theta), "RZZ": RZZ(theta),
			"CAN": Canonical(theta/4, 0.1, 0.05),
		} {
			if !Mat2(m).IsUnitary(1e-10) {
				t.Errorf("%s(%v) not unitary", name, theta)
			}
		}
	}
}

func TestRXMatchesExponential(t *testing.T) {
	x := qmath.FromRows([][]complex128{{0, 1}, {1, 0}})
	theta := 1.234
	want := qmath.Expm(x, -theta/2)
	got := Mat1(RX(theta))
	if !got.Equal(want, 1e-9) {
		t.Errorf("RX(%v) = %v, want %v", theta, got, want)
	}
}

func TestRZZMatchesKron(t *testing.T) {
	z := qmath.FromRows([][]complex128{{1, 0}, {0, -1}})
	zz := z.Kron(z)
	theta := 0.77
	want := qmath.Expm(zz, -theta/2)
	got := Mat2(RZZ(theta))
	if !got.Equal(want, 1e-9) {
		t.Errorf("RZZ(%v) mismatch", theta)
	}
}

func TestRotationPeriodicity(t *testing.T) {
	// RX(4π) = I exactly (up to phase: RX(2π) = −I).
	s := New(1)
	s.Apply1(&GateH, 0)
	ref := s.Clone()
	m := RX(4 * math.Pi)
	s.Apply1(&m, 0)
	if f := s.Fidelity(ref); math.Abs(f-1) > 1e-9 {
		t.Errorf("RX(4π) fidelity %v", f)
	}
}

func TestUnitarityPreservedProperty(t *testing.T) {
	f := func(seed uint64, thetaRaw float64, q uint8) bool {
		r := rng.New(seed)
		s := RandomState(4, r)
		theta := math.Mod(thetaRaw, 10)
		qubit := int(q) % 4
		m := RY(theta)
		s.Apply1(&m, qubit)
		m2 := RZZ(theta / 2)
		s.Apply2(&m2, qubit, (qubit+1)%4)
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApply2QubitOrderConvention(t *testing.T) {
	// RZZ is symmetric; use an asymmetric matrix: controlled-phase with
	// control q0 (low bit). M = diag(1,1,1,i) is symmetric too... use
	// a matrix acting as X on the low bit of the pair only:
	// |q1 q0⟩ -> |q1, ¬q0⟩ : swaps columns 0<->1 and 2<->3.
	xLow := [16]complex128{
		0, 1, 0, 0,
		1, 0, 0, 0,
		0, 0, 0, 1,
		0, 0, 1, 0,
	}
	s := New(2) // |00⟩
	s.Apply2(&xLow, 1, 0)
	// q0 of the pair is qubit 1 here, so qubit 1 should flip: |10⟩.
	if math.Abs(s.Probability(0b10)-1) > tol {
		t.Errorf("Apply2 qubit-order convention broken: %v", s)
	}
}

func TestProbabilityOne(t *testing.T) {
	s := New(2)
	s.Apply1(&GateH, 0)
	if p := s.ProbabilityOne(0); math.Abs(p-0.5) > tol {
		t.Errorf("P(q0=1) = %v, want 0.5", p)
	}
	if p := s.ProbabilityOne(1); p > tol {
		t.Errorf("P(q1=1) = %v, want 0", p)
	}
}

func TestMeasureCollapse(t *testing.T) {
	r := rng.New(42)
	zeros, ones := 0, 0
	for trial := 0; trial < 200; trial++ {
		s := New(1)
		s.Apply1(&GateH, 0)
		out := s.MeasureQubit(0, r)
		if out == 0 {
			zeros++
			if math.Abs(s.Probability(0)-1) > tol {
				t.Fatalf("collapse to 0 failed")
			}
		} else {
			ones++
			if math.Abs(s.Probability(1)-1) > tol {
				t.Fatalf("collapse to 1 failed")
			}
		}
	}
	if zeros < 60 || ones < 60 {
		t.Errorf("measurement statistics off: %d zeros, %d ones", zeros, ones)
	}
}

func TestCollapseZeroProbabilityPanics(t *testing.T) {
	s := New(1) // |0⟩
	defer func() {
		if recover() == nil {
			t.Errorf("collapse onto zero-probability outcome did not panic")
		}
	}()
	s.CollapseQubit(0, 1)
}

func TestSampleShotsDistribution(t *testing.T) {
	s := New(2)
	s.Apply1(&GateH, 0)
	s.CNOT(0, 1)
	r := rng.New(7)
	const shots = 20000
	counts := s.SampleCounts(r, shots)
	if counts[0b01] != 0 || counts[0b10] != 0 {
		t.Errorf("Bell sample produced 01/10: %v", counts)
	}
	frac := float64(counts[0b00]) / shots
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("Bell sample P(00) = %v", frac)
	}
}

func TestSampleShotsCountAndDeterminism(t *testing.T) {
	s := New(3)
	s.Apply1(&GateH, 0)
	s.Apply1(&GateH, 1)
	a := s.SampleShots(rng.New(9), 100)
	b := s.SampleShots(rng.New(9), 100)
	if len(a) != 100 {
		t.Fatalf("wrong shot count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling not deterministic under same RNG seed")
		}
	}
}

func TestSampleNegativeShotsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("negative shots did not panic")
		}
	}()
	New(1).SampleShots(rng.New(1), -1)
}

func TestFromVec(t *testing.T) {
	v := qmath.Vec{complex(1/math.Sqrt2, 0), 0, 0, complex(1/math.Sqrt2, 0)}
	s, err := FromVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if s.Qubits() != 2 {
		t.Errorf("qubits = %d", s.Qubits())
	}
	if _, err := FromVec(qmath.Vec{1, 0, 0}); err == nil {
		t.Errorf("non-power-of-two length accepted")
	}
	if _, err := FromVec(qmath.Vec{2, 0}); err == nil {
		t.Errorf("unnormalized vector accepted")
	}
}

func TestRandomUnitaryIsUnitary(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 2, 3} {
		u := RandomUnitary(n, r)
		if !u.IsUnitary(1e-9) {
			t.Errorf("RandomUnitary(%d) not unitary", n)
		}
	}
}

func TestRandomStateNormalized(t *testing.T) {
	r := rng.New(12)
	s := RandomState(4, r)
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Errorf("random state norm %v", s.Norm())
	}
}

func TestApplyUnitaryPreservesNorm(t *testing.T) {
	r := rng.New(13)
	s := RandomState(2, r)
	u := RandomUnitary(2, r)
	s.ApplyUnitary(u)
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Errorf("norm after ApplyUnitary: %v", s.Norm())
	}
}

func TestGlobalPhaseInvisibleInProbabilities(t *testing.T) {
	r := rng.New(14)
	s := RandomState(2, r)
	p0 := s.Probabilities()
	s.GlobalPhase(1.3)
	p1 := s.Probabilities()
	for i := range p0 {
		if math.Abs(p0[i]-p1[i]) > 1e-12 {
			t.Errorf("global phase changed probabilities")
		}
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Errorf("global phase changed norm")
	}
}

func TestResetAndClone(t *testing.T) {
	s := New(2)
	s.Apply1(&GateH, 0)
	c := s.Clone()
	s.Reset()
	if math.Abs(s.Probability(0)-1) > tol {
		t.Errorf("reset failed")
	}
	if math.Abs(c.Probability(0)-0.5) > tol {
		t.Errorf("clone affected by reset")
	}
}

func TestInnerProduct(t *testing.T) {
	a := New(1)
	b := New(1)
	b.Apply1(&GateX, 0)
	if ip := a.InnerProduct(b); cmplx.Abs(ip) > tol {
		t.Errorf("⟨0|1⟩ = %v", ip)
	}
	if ip := a.InnerProduct(a); cmplx.Abs(ip-1) > tol {
		t.Errorf("⟨0|0⟩ = %v", ip)
	}
}

func TestMismatchedSizesPanic(t *testing.T) {
	a, b := New(1), New(2)
	for i, fn := range []func(){
		func() { a.Fidelity(b) },
		func() { a.InnerProduct(b) },
		func() { a.ApplyUnitary(qmath.Identity(4)) },
		func() { a.Apply1(&GateX, 5) },
		func() { b.Apply2(&[16]complex128{}, 0, 0) },
		func() { b.CNOT(1, 1) },
		func() { b.CZ(0, 0) },
		func() { b.ApplyControlled1(&GateX, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStringRendering(t *testing.T) {
	s := New(2)
	if got := s.String(); got == "" || got == "0" {
		t.Errorf("String() = %q", got)
	}
}

func TestCanonicalGeneratorsCommute(t *testing.T) {
	// CAN built as RXX·RYY·RZZ must equal RZZ·RYY·RXX.
	a := mul4(mul4(RXX(0.3), RYY(0.5)), RZZ(0.7))
	b := mul4(mul4(RZZ(0.7), RYY(0.5)), RXX(0.3))
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-10 {
			t.Fatalf("XX/YY/ZZ rotation order mattered at %d", i)
		}
	}
}

// BenchmarkApply1Gate16q measures single-qubit gate application on a
// 16-qubit statevector (the simulator's hot loop).
func BenchmarkApply1Gate16q(b *testing.B) {
	s := New(16)
	m := RY(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply1(&m, i%16)
	}
}

// BenchmarkApply2Gate16q measures two-qubit gate application.
func BenchmarkApply2Gate16q(b *testing.B) {
	s := New(16)
	m := RZZ(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply2(&m, i%15, (i%15)+1)
	}
}

// BenchmarkSample1kShots12q measures measurement sampling.
func BenchmarkSample1kShots12q(b *testing.B) {
	s := New(12)
	h := GateH
	for q := 0; q < 12; q++ {
		s.Apply1(&h, q)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleShots(r, 1000)
	}
}
