package core

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDeltaRoundTripSameLength(t *testing.T) {
	base := []byte{1, 2, 3, 4, 5}
	cur := []byte{1, 2, 9, 4, 5}
	d := AppendDelta(nil, base, cur)
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Errorf("round trip: %v != %v", got, cur)
	}
}

func TestDeltaRoundTripGrowShrink(t *testing.T) {
	base := []byte{1, 2, 3}
	grown := []byte{1, 2, 3, 4, 5, 6}
	shrunk := []byte{9}
	for _, cur := range [][]byte{grown, shrunk, {}, base} {
		d := AppendDelta(nil, base, cur)
		got, err := ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("cur=%v: %v", cur, err)
		}
		if !bytes.Equal(got, cur) {
			t.Errorf("cur=%v: got %v", cur, got)
		}
	}
}

func TestDeltaIdentityIsZeros(t *testing.T) {
	base := []byte{7, 7, 7, 7}
	d := AppendDelta(nil, base, base)
	body := d[16:]
	for i, b := range body {
		if b != 0 {
			t.Errorf("identical payloads produced nonzero delta byte at %d", i)
		}
	}
}

func TestDeltaRejectsWrongBase(t *testing.T) {
	base := []byte{1, 2, 3, 4}
	cur := []byte{1, 2, 3, 5}
	d := AppendDelta(nil, base, cur)
	if _, err := ApplyDelta([]byte{1, 2, 3}, d); err == nil {
		t.Errorf("wrong-length base accepted")
	}
	if _, err := ApplyDelta(base, d[:10]); err == nil {
		t.Errorf("truncated delta accepted")
	}
	if _, err := ApplyDelta(base, append(d, 0)); err == nil {
		t.Errorf("oversized delta accepted")
	}
}

func TestDeltaRoundTripProperty(t *testing.T) {
	f := func(seedA, seedB uint64, lenA, lenB uint16) bool {
		ra, rb := rng.New(seedA), rng.New(seedB)
		base := make([]byte, int(lenA)%512)
		cur := make([]byte, int(lenB)%512)
		for i := range base {
			base[i] = byte(ra.Uint64())
		}
		for i := range cur {
			cur[i] = byte(rb.Uint64())
		}
		d := AppendDelta(nil, base, cur)
		got, err := ApplyDelta(base, d)
		return err == nil && bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeltaOfSimilarStatesMostlyZero(t *testing.T) {
	// The motivating property: two adjacent training states differ only in
	// a few floats, so the XOR delta is mostly zero bytes (F5's mechanism).
	a := sampleState()
	a.Params = make([]float64, 512)
	for i := range a.Params {
		a.Params[i] = float64(i) * 0.31
	}
	a.BestParams = append([]float64{}, a.Params...)
	b := a.Clone()
	b.Step++
	b.Params[1] += 1e-9
	b.LossHistory = append(b.LossHistory, 0.24)

	pa, _ := EncodePayload(a)
	pb, _ := EncodePayload(b)
	d := AppendDelta(nil, pa, pb)
	zeros := 0
	for _, v := range d[16:] {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(d)-16)
	if frac < 0.7 {
		t.Errorf("delta of adjacent states only %.0f%% zero", frac*100)
	}
}

// fuzzPayloadEdit returns a copy of p with a span of up to 96 bytes flipped
// and, when e's top bit is set, its length changed by up to 64 bytes either
// way, all chosen by e.
func fuzzPayloadEdit(p []byte, e uint64) []byte {
	out := bytes.Clone(p)
	if len(out) > 0 {
		off := int(e % uint64(len(out)))
		for i := off; i < min(off+int(e>>16%97), len(out)); i++ {
			out[i] ^= byte(e>>32) | 1
		}
	}
	if e>>63 == 0 {
		return out
	}
	d := int(e>>40%129) - 64
	if d < 0 {
		return out[:max(0, len(out)+d)]
	}
	return append(out, bytes.Repeat([]byte{byte(e >> 48)}, d)...)
}

// lentLeaves reports, per leaf of cur, whether its hash is the one prev's
// root input lent: the input's leaf slots are overwritten with a marker
// first, so every leaf hashLeaves re-hashes loses it.
func lentLeaves(prev, cur []byte, dirty dirtyMap, leaf int) []bool {
	tree, _, _ := hashLeaves(nil, prev, dirtyMap{}, leaf)
	for i := 8; i < len(tree); i++ {
		tree[i] = 0xA5
	}
	tree, _, _ = hashLeaves(tree, cur, dirty, leaf)
	lent := make([]bool, (len(cur)+leaf-1)/leaf)
	for i := range lent {
		lent[i] = !slices.ContainsFunc(tree[8+32*i:8+32*(i+1)], func(b byte) bool { return b != 0xA5 })
	}
	return lent
}

// reusedChunks lists the chunks a reuse list adopts.
func reusedChunks(reuse []string) []int {
	var at []int
	for i, a := range reuse {
		if a != "" {
			at = append(at, i)
		}
	}
	return at
}

// FuzzDirtyMapMatchesCompare holds what a save's dirty map drives to the
// byte compares it replaces. Payloads p0 → p1 → p2 differ by random dirty
// spans, growth and shrink; maps are taken at 16-byte granules under
// 64-byte leaves. The map-driven delta bodies must be AppendDelta's bytes,
// the leaves p1's root input lends p2's hash exactly those a byte compare
// lends, and plan of delta(p1, p2) against delta(p0, p1) under the fixed
// and the content-defined rule must cut and reuse with the maps exactly as
// it does comparing bytes. The same edits then drive three states through a
// save's encode: every payload sealed from its map must be EncodePayload's
// byte for byte, and the map must stay a byte compare of the sealed payloads,
// trailer granules included.
func FuzzDirtyMapMatchesCompare(f *testing.F) {
	blob := cdcTestBlob(1024, 33)
	f.Add(blob, uint64(100|40<<16), uint64(900|8<<16))            // equal lengths, spans far apart
	f.Add(blob, uint64(500|96<<16), uint64(510|3<<16))            // equal lengths, overlapping spans
	f.Add(blob, uint64(0), uint64(1<<63|100<<40))                 // p2 grows by 36 bytes
	f.Add(blob, uint64(0), uint64(1<<63|10<<40))                  // p2 shrinks by 54 bytes, inside a leaf
	f.Add(blob, uint64(1<<63|10<<40|7), uint64(300|60<<16))       // p1 shrinks by 54 bytes
	f.Add(make([]byte, 640), uint64(64|16<<16), uint64(65|1<<16)) // zero runs: every delta chunk alike
	f.Add([]byte{}, uint64(1<<63|128<<40), uint64(0))             // grow from empty
	// Sections shift over zeros that still compare equal.
	f.Add(make([]byte, 9000), uint64(1<<63|72<<40|5<<56), uint64(1<<63|8<<40|3<<60))
	const gran, leaf = 16, 64
	f.Fuzz(func(t *testing.T, p0 []byte, e1, e2 uint64) {
		p1 := fuzzPayloadEdit(p0, e1)
		p2 := fuzzPayloadEdit(p1, e2)
		m1, m2 := diffMap(p1, p0, gran), diffMap(p2, p1, gran)
		d1, d2 := AppendDelta(nil, p0, p1), AppendDelta(nil, p1, p2)
		if !bytes.Equal(appendDelta(nil, p0, p1, m1), d1) || !bytes.Equal(appendDelta(nil, p1, p2, m2), d2) {
			t.Fatal("a map-driven delta body differs from AppendDelta's")
		}
		want := make([]bool, (len(p2)+leaf-1)/leaf)
		for i := range want {
			off, end := i*leaf, min((i+1)*leaf, len(p2))
			want[i] = min(off+leaf, len(p1)) == end && bytes.Equal(p2[off:end], p1[off:end])
		}
		if got := lentLeaves(p1, p2, m2, leaf); !slices.Equal(got, want) {
			t.Fatalf("leaves lent by the map %v, by a byte compare %v", got, want)
		}
		for _, p := range []cdcParams{fixedParams(64), cdcParamsFor(64)} {
			prev := &chunkBase{body: &refBuf{b: d1, dirty: m1}, cuts: appendCutpoints(nil, d1, p)}
			for _, piece := range cdcPieces(d1, prev.cuts) {
				prev.addrs = append(prev.addrs, string(piece))
			}
			reuse, cuts := (&Manager{}).plan(d2, p, prev, nil, m2)
			wantReuse, wantCuts := (&Manager{}).plan(d2, p, prev, nil, dirtyMap{})
			if !slices.Equal(cuts, wantCuts) || !slices.Equal(reuse, wantReuse) {
				t.Fatalf("rule %v: with the maps plan cuts %v and reuses chunks %v, comparing bytes %v and %v",
					p, cuts, reusedChunks(reuse), wantCuts, reusedChunks(wantReuse))
			}
		}
		var last *refBuf
		for i, s := range []*TrainingState{sealFuzzState(p0, 0), sealFuzzState(p1, e1), sealFuzzState(p2, e2)} {
			cur := sealState(s, last)
			if want, _ := EncodePayload(s); !bytes.Equal(cur.b, want) {
				t.Fatalf("payload %d: sealed from the map, it is not EncodePayload's", i)
			}
			if last != nil && !slices.Equal(cur.dirty.bits, diffMap(cur.b, last.b, granuleBytes).bits) {
				t.Fatalf("payload %d: the sealed payload's map is not a byte compare's", i)
			}
			last = cur
		}
	})
}

// sealFuzzState is a state of a few 4 KiB granules for a blob and an edit:
// the blob is its optimizer section, so blob edits move every later section,
// e's top byte changes the parameter count, which moves every section after
// the parameters, e picks one parameter to move, and e's top nibble sizes the
// loss history at the tail.
func sealFuzzState(blob []byte, e uint64) *TrainingState {
	s := NewTrainingState()
	s.Step = e
	s.Params = make([]float64, 1500+int(e>>56%64))
	for i := range s.Params {
		s.Params[i] = float64(i)
	}
	s.Params[e%uint64(len(s.Params))] += float64(e >> 32)
	s.Optimizer = blob
	s.LossHistory = make([]float64, e>>60)
	return s
}

// cleanBitLoop is dirtyMap.clean one granule at a time: the oracle of the
// word-at-a-time test.
func cleanBitLoop(d dirtyMap, lo, hi int) bool {
	if d.gran == 0 {
		return false
	}
	for j := lo / d.gran; j*d.gran < hi; j++ {
		if j/64 >= len(d.bits) || d.bits[j/64]&(1<<(j%64)) != 0 {
			return false
		}
	}
	return true
}

// markedBitLoop is dirtyMap.marked one granule at a time: the pieces of
// [lo, hi) under the granules the bit loop does not call clean.
func markedBitLoop(d dirtyMap, lo, hi int) [][2]int {
	var runs [][2]int
	for a := lo; a < hi; {
		b := hi
		if d.gran > 0 {
			b = min(hi, (a/d.gran+1)*d.gran)
		}
		if !cleanBitLoop(d, a, b) {
			runs = append(runs, [2]int{a, b})
		}
		a = b
	}
	return runs
}

// TestCleanMatchesBitLoop holds clean, marked and markedAt to the bit loop
// over random maps — sparse, dense and empty words, granules of one byte to
// 4 KiB — and ranges that start, end and run past the map at and between
// granule and word boundaries.
func TestCleanMatchesBitLoop(t *testing.T) {
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		d := dirtyMap{gran: 1 << (r.Uint64() % 13), bits: make([]uint64, r.Uint64()%5)}
		for w := range d.bits {
			switch r.Uint64() % 3 {
			case 0: // clean
			case 1:
				d.bits[w] = 1 << (r.Uint64() % 64)
			default:
				d.bits[w] = r.Uint64()
			}
		}
		span := (64*len(d.bits) + 2) * d.gran
		lo := int(r.Uint64() % uint64(span))
		hi := lo + int(r.Uint64()%uint64(span-lo+1))
		if i%4 == 0 { // on granule boundaries
			lo, hi = lo/d.gran*d.gran, hi/d.gran*d.gran
		}
		if got, want := d.clean(lo, hi), cleanBitLoop(d, lo, hi); got != want {
			t.Fatalf("gran %d, %d words %x: clean(%d, %d) = %v, the bit loop says %v", d.gran, len(d.bits), d.bits, lo, hi, got, want)
		}
		var runs [][2]int
		for from, to := range d.marked(lo, hi) {
			runs = append(runs, [2]int{from, to})
		}
		if want := markedBitLoop(d, lo, hi); !slices.Equal(runs, want) {
			t.Fatalf("gran %d, %d words %x: marked(%d, %d) = %v, the bit loop says %v", d.gran, len(d.bits), d.bits, lo, hi, runs, want)
		}
		if got, want := d.markedAt(lo), !cleanBitLoop(d, lo, lo+1); got != want {
			t.Fatalf("gran %d, %d words %x: markedAt(%d) = %v, the bit loop says %v", d.gran, len(d.bits), d.bits, lo, got, want)
		}
	}
	if (dirtyMap{}).clean(0, 1) || !(dirtyMap{}).markedAt(0) {
		t.Error("no map reads as clean")
	}
	for from, to := range (dirtyMap{}).marked(3, 9) {
		if from != 3 || to != 9 {
			t.Errorf("no map: marked(3, 9) yields [%d, %d)", from, to)
		}
	}
}
