package core

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// sampleState builds a populated, valid state for tests.
func sampleState() *TrainingState {
	s := NewTrainingState()
	s.Step = 42
	s.Epoch = 3
	s.Params = []float64{0.1, -0.2, 3.14, 0}
	s.Optimizer = []byte{1, 2, 3, 4, 5}
	s.RNG = []byte{9, 8, 7}
	s.GradAccum = []byte{0xaa}
	s.DataPerm = []uint32{2, 0, 1, 3}
	s.DataPos = 2
	s.LossHistory = []float64{1.0, 0.5, 0.25}
	s.BestLoss = 0.25
	s.BestParams = []float64{0.1, -0.2, 3.0, 0}
	s.Counters = Counters{
		QPUClockNS:  123456789,
		TotalShots:  100000,
		WastedShots: 512,
		Jobs:        321,
		Preemptions: 2,
	}
	s.Meta = Meta{
		FormatVersion: FormatVersion,
		CircuitFP:     "abc123",
		ProblemFP:     "tfim-n4",
		OptimizerName: "adam",
		Extra:         "lr=0.05;shots=256",
	}
	return s
}

// randomState builds a pseudo-random valid state for property tests.
func randomState(seed uint64) *TrainingState {
	r := rng.New(seed)
	s := NewTrainingState()
	s.Step = r.Uint64() % 10000
	s.Epoch = r.Uint64() % 100
	np := r.Intn(64) + 1
	s.Params = make([]float64, np)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	s.Optimizer = make([]byte, r.Intn(256))
	for i := range s.Optimizer {
		s.Optimizer[i] = byte(r.Uint64())
	}
	s.RNG = make([]byte, 200)
	for i := range s.RNG {
		s.RNG[i] = byte(r.Uint64())
	}
	if r.Float64() < 0.5 {
		s.GradAccum = make([]byte, r.Intn(128))
		for i := range s.GradAccum {
			s.GradAccum[i] = byte(r.Uint64())
		}
	}
	perm := r.Perm(r.Intn(16) + 1)
	s.DataPerm = make([]uint32, len(perm))
	for i, v := range perm {
		s.DataPerm[i] = uint32(v)
	}
	s.DataPos = uint32(r.Intn(len(perm) + 1))
	nh := r.Intn(50)
	s.LossHistory = make([]float64, nh)
	for i := range s.LossHistory {
		s.LossHistory[i] = r.NormFloat64()
	}
	if r.Float64() < 0.7 {
		s.BestLoss = r.NormFloat64()
		s.BestParams = append([]float64{}, s.Params...)
	}
	s.Counters = Counters{
		QPUClockNS: int64(r.Uint64() % (1 << 40)),
		TotalShots: r.Uint64() % (1 << 30),
		Jobs:       r.Uint64() % 10000,
	}
	s.Meta = Meta{
		FormatVersion: FormatVersion,
		CircuitFP:     "fp-circuit",
		ProblemFP:     "fp-problem",
		OptimizerName: "adam",
		Extra:         "x",
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleState()
	payload, err := EncodePayload(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip not equal:\n got %+v\nwant %+v", got, s)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s := sampleState()
	a, _ := EncodePayload(s)
	b, _ := EncodePayload(s.Clone())
	if string(a) != string(b) {
		t.Errorf("encoding not deterministic")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomState(seed)
		payload, err := EncodePayload(s)
		if err != nil {
			return false
		}
		got, err := DecodePayload(payload)
		if err != nil {
			return false
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDetectsBitFlips(t *testing.T) {
	s := sampleState()
	payload, _ := EncodePayload(s)
	// Flip one byte at several positions; decode must fail every time
	// (section CRCs cover the whole payload).
	for _, pos := range []int{0, 5, len(payload) / 2, len(payload) - 1} {
		corrupted := append([]byte{}, payload...)
		corrupted[pos] ^= 0x40
		if _, err := DecodePayload(corrupted); err == nil {
			t.Errorf("bit flip at %d undetected", pos)
		}
	}
}

func TestDecodeDetectsTruncation(t *testing.T) {
	s := sampleState()
	payload, _ := EncodePayload(s)
	for _, n := range []int{0, 1, 8, len(payload) - 1} {
		if _, err := DecodePayload(payload[:n]); err == nil {
			t.Errorf("truncation to %d bytes undetected", n)
		}
	}
}

func TestDecodeRejectsDuplicateSection(t *testing.T) {
	s := sampleState()
	payload, _ := EncodePayload(s)
	// Append a copy of the first section (counters, 8*7 payload bytes +
	// 9 framing bytes).
	first := payload[:9+56]
	if _, err := DecodePayload(append(append([]byte{}, payload...), first...)); err == nil {
		t.Errorf("duplicate section accepted")
	}
}

func TestEncodeRejectsInvalidState(t *testing.T) {
	s := sampleState()
	s.Params[0] = math.NaN()
	if _, err := EncodePayload(s); err == nil {
		t.Errorf("NaN parameter accepted")
	}
	s2 := sampleState()
	s2.DataPos = 99
	if _, err := EncodePayload(s2); err == nil {
		t.Errorf("out-of-range data cursor accepted")
	}
	s3 := sampleState()
	s3.Meta.FormatVersion = 99
	if _, err := EncodePayload(s3); err == nil {
		t.Errorf("wrong format version accepted")
	}
	s4 := sampleState()
	s4.BestParams = []float64{1}
	if _, err := EncodePayload(s4); err == nil {
		t.Errorf("mismatched best-params accepted")
	}
}

// TestValidateRejectsExactlyNonFinite: Validate's exponent-mask test
// accepts and rejects exactly the parameters math.IsNaN || math.IsInf does.
func TestValidateRejectsExactlyNonFinite(t *testing.T) {
	for _, v := range []float64{
		math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), // a quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0001), // a signalling NaN, sign set
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x800f_ffff_ffff_ffff), // subnormals
		math.Copysign(0, -1), 0, 1,
	} {
		s := sampleState()
		s.Params[1] = v
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		if err := s.Validate(); (err == nil) != finite {
			t.Errorf("%v (%#016x): Validate says %v, finite %v", v, math.Float64bits(v), err, finite)
		}
	}
}

// TestF64SectionsMatchLoop holds the one-copy float sections to the loop
// they fall back to off little-endian hosts, byte for byte both ways: -0,
// NaN payloads, subnormals, ±Inf, and lengths either side of a copy piece,
// appended at an odd offset.
func TestF64SectionsMatchLoop(t *testing.T) {
	if !littleEndian {
		t.Skip("the loop is the only path on a big-endian host")
	}
	specials := []float64{
		math.Copysign(0, -1), 0, 1, -math.MaxFloat64,
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001), // NaN payloads
		math.SmallestNonzeroFloat64, math.Float64frombits(0x800f_ffff_ffff_ffff), // subnormals
		math.Inf(1), math.Inf(-1),
	}
	per := pieceBytes / 8
	for _, n := range []int{0, 1, 9, per - 1, per, per + 1, 3*per + 5} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = specials[i%len(specials)] * float64(1+i/len(specials))
		}
		head := []byte{0xa5, 0x5a, 0xc3}
		section := func() []byte { // head, then vs laid out as a float section
			p := payloadSpans{small: bytes.Clone(head)}
			p.f64s(vs)
			p.mem(nil)
			return slices.Concat(p.spans...)
		}
		fast := section()
		fastBack, err := readF64s(fast[len(head):])
		if err != nil {
			t.Fatal(err)
		}
		littleEndian = false
		slow := section()
		slowBack, _ := readF64s(fast[len(head):])
		littleEndian = true
		if !bytes.Equal(fast, slow) {
			t.Errorf("%d floats: the one-copy encode differs from the loop's", n)
		}
		if !floatsEqual(fastBack, vs) || !floatsEqual(slowBack, vs) {
			t.Errorf("%d floats: a decode is not bitwise the floats encoded", n)
		}
	}
	if _, err := readF64s(make([]byte, 12)); err == nil {
		t.Error("a 12-byte float section decoded")
	}
}

// sealState is s's payload as a save seals it after last, the payload saved
// before it (nil for none), written whole into a buffer of its own.
func sealState(s *TrainingState, last *refBuf) *refBuf {
	var p payloadSpans
	p.layout(s)
	rb := &refBuf{b: make([]byte, p.n)}
	p.fill(rb, last, false)
	return rb
}

// TestSealRecomputesGranulesThatWereEdges: a granule whose bytes a save
// keeps can change roles. Here granule 1 of the last payload held the
// parameters' trailer and the optimizer's header, and the same bytes now lie
// wholly inside the optimizer section: the last payload cached no CRC for
// it, so the seal must compute one.
func TestSealRecomputesGranulesThatWereEdges(t *testing.T) {
	s0 := NewTrainingState()
	s0.Params = make([]float64, 1000) // the parameters' trailer at byte 8070
	s0.Optimizer = make([]byte, 1000)
	last := sealState(s0, nil)
	s1 := NewTrainingState()
	s1.Params = make([]float64, 100)             // the optimizer's bytes start at 879
	s1.Optimizer = bytes.Clone(last.b[879:8300]) // so payload bytes 879…8300 are the last payload's
	cur := sealState(s1, last)
	if last.sums[1] != 0 || !cur.dirty.clean(granuleBytes, 2*granuleBytes) {
		t.Fatal("granule 1 is not a clean granule that was an edge")
	}
	if want, _ := EncodePayload(s1); !bytes.Equal(cur.b, want) {
		t.Error("the sealed payload is not EncodePayload's")
	}
}

// FuzzDecodePayload feeds DecodePayload arbitrary bytes — the sections a
// restore reads from a store it does not control. It must never panic, and
// a payload it accepts must re-encode through AppendPayload to one that
// decodes to an Equal state.
func FuzzDecodePayload(f *testing.F) {
	for _, s := range []*TrainingState{sampleState(), NewTrainingState()} {
		p, err := EncodePayload(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodePayload(data)
		if err != nil {
			return
		}
		p, err := AppendPayload(nil, s)
		if err != nil {
			t.Fatalf("an accepted payload does not re-encode: %v", err)
		}
		back, err := DecodePayload(p)
		if err != nil {
			t.Fatalf("a re-encoded payload does not decode: %v", err)
		}
		if !back.Equal(s) {
			t.Fatal("a re-encoded payload decodes to another state")
		}
	})
}

func TestCloneIndependence(t *testing.T) {
	s := sampleState()
	c := s.Clone()
	s.Params[0] = 99
	s.Optimizer[0] = 99
	s.LossHistory[0] = 99
	s.DataPerm[0] = 99
	if c.Params[0] == 99 || c.Optimizer[0] == 99 || c.LossHistory[0] == 99 || c.DataPerm[0] == 99 {
		t.Errorf("clone shares backing arrays")
	}
	if !c.Equal(sampleState()) {
		t.Errorf("clone diverged from original value")
	}
}

func TestEqualDetectsEveryFieldDifference(t *testing.T) {
	base := sampleState()
	muts := []func(*TrainingState){
		func(s *TrainingState) { s.Step++ },
		func(s *TrainingState) { s.Epoch++ },
		func(s *TrainingState) { s.Params[0] += 1e-15 },
		func(s *TrainingState) { s.Optimizer[0]++ },
		func(s *TrainingState) { s.RNG[0]++ },
		func(s *TrainingState) { s.GradAccum = []byte{} },
		func(s *TrainingState) { s.DataPerm[0]++ },
		func(s *TrainingState) { s.DataPos-- },
		func(s *TrainingState) { s.LossHistory = s.LossHistory[:2] },
		func(s *TrainingState) { s.BestLoss = 0.3 },
		func(s *TrainingState) { s.BestParams[1] = 7 },
		func(s *TrainingState) { s.Counters.TotalShots++ },
		func(s *TrainingState) { s.Meta.Extra = "different" },
	}
	for i, mut := range muts {
		m := base.Clone()
		mut(m)
		if m.Equal(base) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
}

func TestMetaCompatibility(t *testing.T) {
	live := sampleState().Meta
	if err := live.CompatibleWith(live); err != nil {
		t.Errorf("self-compatibility failed: %v", err)
	}
	muts := []func(*Meta){
		func(m *Meta) { m.FormatVersion = 2 },
		func(m *Meta) { m.CircuitFP = "other" },
		func(m *Meta) { m.ProblemFP = "other" },
		func(m *Meta) { m.OptimizerName = "sgd" },
		func(m *Meta) { m.Extra = "other" },
	}
	for i, mut := range muts {
		m := live
		mut(&m)
		if err := m.CompatibleWith(live); err == nil {
			t.Errorf("mutation %d accepted as compatible", i)
		}
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	s := sampleState()
	b := s.Breakdown()
	sum := b.Params + b.Optimizer + b.RNG + b.GradAccum + b.DataCursor +
		b.LossHistory + b.Best + b.Counters + b.Meta
	if b.Total != sum {
		t.Errorf("breakdown total %d != sum %d", b.Total, sum)
	}
	if b.Params != 8*len(s.Params) {
		t.Errorf("params size = %d", b.Params)
	}
}

func TestEmptyStateRoundTrip(t *testing.T) {
	s := NewTrainingState()
	payload, err := EncodePayload(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("empty state round trip failed")
	}
	// BestLoss must survive as +Inf.
	if !math.IsInf(got.BestLoss, 1) {
		t.Errorf("BestLoss = %v, want +Inf", got.BestLoss)
	}
}

// BenchmarkEncodePayload measures the canonical serialization alone.
func BenchmarkEncodePayload(b *testing.B) {
	st := benchState(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePayload(st); err != nil {
			b.Fatal(err)
		}
	}
}
