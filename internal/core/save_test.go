package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/storage"
)

// stageNames are SaveCost's stages in the order a save runs them, as the
// save benchmarks' <stage>-ns/op columns name them.
var stageNames = [...]string{"encode", "seal", "delta", "queue", "plan", "chunks", "hashwait", "commit", "retain"}

// stageTimes lists c's stages in stageNames' order.
func stageTimes(c SaveCost) [len(stageNames)]time.Duration {
	return [...]time.Duration{c.Encode, c.Seal, c.Delta, c.Queue, c.Plan, c.Chunks, c.HashWait, c.Commit, c.Retain}
}

// reportStages reports what a benchmark's timed saves spent in each stage,
// from the ledger before and after them, as advisory <stage>-ns/op columns.
func reportStages(b *testing.B, spent [len(stageNames)]time.Duration) {
	for i, d := range spent {
		b.ReportMetric(float64(d)/float64(b.N), stageNames[i]+"-ns/op")
	}
}

// addStages adds what the ledger charged between before and after to spent.
func addStages(spent *[len(stageNames)]time.Duration, before, after SaveCost) {
	was, now := stageTimes(before), stageTimes(after)
	for i := range spent {
		spent[i] += now[i] - was[i]
	}
}

// TestSaveCostSumsToWall holds the save ledger to the clock. Over 100 saves
// of each case — anchors and deltas, monolithic and chunked under both
// boundary rules, one worker and four — the stages of a synchronous save
// add up to Save's own wall time with under 5 % unattributed, and the
// trainer's stages of an asynchronous save to its Save's. On a fake clock,
// where every reading is a tick past the last, they add up to it exactly:
// every reading a save takes is a lap, so the partition holds with no host
// scheduler in the way. Every stage the case runs is charged something,
// every other one nothing, and SaveResult's two timers are exactly their
// stage sums.
func TestSaveCostSumsToWall(t *testing.T) {
	const saves, window = 100, 96
	params := 32 << 10
	if raceEnabled {
		params = 4 << 10 // the same saves, at a size race instrumentation runs in seconds
	}
	fixed := Options{Strategy: StrategyDelta, AnchorEvery: 8, Retain: 2, ChunkBytes: 8 << 10}
	cdc := fixed
	cdc.Chunker = ChunkerCDC
	with := func(o Options, workers int, async bool) Options {
		o.Workers, o.Async = workers, async
		return o
	}
	cases := []struct {
		name string
		opt  Options
		fake bool // on a fakeClock: nothing unattributed
	}{
		{"monolithic-anchors", Options{Strategy: StrategyFull, Retain: 2}, false},
		{"monolithic-deltas", Options{Strategy: StrategyDelta, AnchorEvery: 8, Retain: 2}, false},
		{"fixed-w1", with(fixed, 1, false), false},
		{"fixed-w4", with(fixed, 4, false), false},
		{"cdc-w1", with(cdc, 1, false), false},
		{"cdc-w4", with(cdc, 4, false), false},
		{"async-fixed-w4", with(fixed, 4, true), false},
		{"async-monolithic", Options{Strategy: StrategyDelta, AnchorEvery: 8, Async: true}, false},
		{"fake-clock-monolithic-deltas", Options{Strategy: StrategyDelta, AnchorEvery: 8, Retain: 2}, true},
		{"fake-clock-fixed-w4", with(fixed, 4, false), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			s := NewTrainingState()
			s.Params = make([]float64, params)
			for i := range s.Params {
				s.Params[i] = r.NormFloat64()
			}
			opt := tc.opt
			opt.Backend = storage.NewMem()
			m, err := NewManager(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			since := time.Since
			if tc.fake {
				clk := newFakeClock(time.Microsecond)
				m.clock, since = clk, clk.sinceLast
			}
			var wall, encode, write time.Duration
			for i := 0; i < saves; i++ {
				for j := 0; j < window; j++ {
					s.Params[(i*window+j)%params] += 1e-3
				}
				s.Step++
				// Save's own first reading starts the wall, as it starts the
				// ledger: a clock read before the call would also count a
				// preemption at the call against the ledger.
				l := ledger{stopwatch: stopwatch{m.clock, m.clock.Now()}}
				res, err := m.save(s, l)
				wall += since(l.t)
				if err != nil {
					t.Fatal(err)
				}
				encode += res.Encode
				write += res.Write
			}
			if err := m.Barrier(); err != nil {
				t.Fatal(err)
			}
			c := m.Stats().Cost
			trainer := c.Stall(opt.Async)
			if rest := wall - trainer; rest < 0 || rest > wall/20 || tc.fake && rest != 0 {
				t.Errorf("the trainer's stages sum to %v of a %v wall: %v unattributed", trainer, wall, rest)
			}
			if want := c.Encode + c.Seal; encode != want {
				t.Errorf("Σ SaveResult.Encode = %v, Encode + Seal = %v", encode, want)
			}
			if want := c.Persist(); opt.Async && write != 0 || !opt.Async && write != want {
				t.Errorf("Σ SaveResult.Write = %v, Persist = %v (async %v)", write, want, opt.Async)
			}
			chunked := opt.ChunkBytes > 0
			ran := [len(stageNames)]bool{true, true, true, opt.Async, chunked, chunked, true, true, true}
			for i, d := range stageTimes(c) {
				if ran[i] != (d > 0) {
					t.Errorf("stage %s charged %v (runs here: %v)", stageNames[i], d, ran[i])
				}
			}
			t.Logf("wall %v, stages %v", wall, stageTimes(c))
		})
	}
}

// rejectOpsState applies one three-byte op (flags, a, b) of
// FuzzSaveRejectsLikeValidate to a copy of s. The value the op writes is
// flags&3: a finite a − 128.5, a NaN carrying a, ±Inf by a's low bit, or the
// all-ones NaN. Flag 4 resizes the parameters to 512 + 16·b, a new parameter
// i holding the value when i%1024 == 800 and i otherwise; without it
// parameter a·len/256 takes the value. Flag 8 fills the optimizer blob and
// flag 16 the RNG blob with NaN-shaped bytes, flag 32 keeps a best-params
// copy made before the resize, and flag 64 puts the data cursor past the
// permutation. Flag 128 makes the optimizer blob the image of the all-ones
// NaN resize at the offsets it would take, so that a later such resize
// leaves whole granules of the payload unchanged — parameters where
// optimizer bytes were, NaNs among them.
func rejectOpsState(s *TrainingState, flags, a, b byte) *TrainingState {
	s = s.Clone()
	s.Step++
	v := [...]float64{float64(a) - 128.5, math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(a)),
		math.Inf(1 - 2*int(a&1)), math.Float64frombits(^uint64(0))}[flags&3]
	grown := func(i int, v float64) float64 {
		if i%1024 == 800 {
			return v
		}
		return float64(i)
	}
	if flags&32 != 0 {
		s.BestParams = slices.Clone(s.Params)
	}
	if n := 512 + 16*int(b); flags&4 != 0 {
		for i := len(s.Params); i < n; i++ {
			s.Params = append(s.Params, grown(i, v))
		}
		s.Params = s.Params[:n]
	} else if len(s.Params) > 0 {
		s.Params[int(a)*len(s.Params)/256] = v
	}
	if flags&8 != 0 {
		s.Optimizer = bytes.Repeat([]byte{0xff}, len(s.Optimizer))
	}
	if flags&16 != 0 {
		for i := 0; i+8 <= len(s.RNG); i += 8 {
			binary.LittleEndian.PutUint64(s.RNG[i:], 0x7ff8_0000_0000_0001)
		}
	}
	if flags&64 != 0 {
		s.DataPos = uint32(len(s.DataPerm) + 1)
	}
	if flags&128 != 0 { // the section trailer and header take 9 bytes
		img := []byte{}
		for i := len(s.Params); len(img) < 9+len(s.Optimizer); i++ {
			img = binary.LittleEndian.AppendUint64(img, math.Float64bits(grown(i, math.Float64frombits(^uint64(0)))))
		}
		s.Optimizer = img[9 : 9+len(s.Optimizer)]
	}
	return s
}

// FuzzSaveRejectsLikeValidate holds a save's parameter check — Validate's
// shape checks before the encode, finiteness read after the diff from the
// granules it marks — to the full Validate. Each op of the input builds a
// state from the last one accepted (rejectOpsState): NaN and ±Inf anywhere
// in the parameters, NaN-shaped blobs, resizes, shape faults. Save must fail
// exactly when Validate does, with its error. A rejected save must leave no
// trace: a manager that only ever sees the accepted states stores the same
// objects byte for byte and counts the same Stats, under monolithic and
// chunked snapshots alike — all but the bytes copied into payload buffers:
// a rejected payload goes back to the pool, and the save after it writes a
// fresh buffer whole where the other manager patches its lagging one.
func FuzzSaveRejectsLikeValidate(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 200, 0})
	f.Add([]byte{1, 5, 0, 0, 5, 0, 2, 255, 0, 0, 255, 0})                // NaN, then ±Inf at the last parameter
	f.Add([]byte{8, 0, 0, 4 | 3, 0, 96, 4, 0, 96})                       // all-ones NaNs grown over an all-ones optimizer
	f.Add([]byte{128, 0, 0, 4 | 3, 0, 96, 4, 0, 96})                     // a NaN only in a granule the resize left unchanged
	f.Add([]byte{16, 0, 0, 32 | 4, 0, 10, 64, 3, 0, 3, 128, 0})          // NaN-shaped RNG, shape faults, an all-ones NaN
	f.Add([]byte{4, 0, 200, 4 | 1, 7, 3, 4, 0, 3, 8 | 2, 0, 0, 0, 0, 0}) // shrink, NaN in a resize, shrink back
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*10)]
		start := NewTrainingState()
		start.Params = make([]float64, 1024)
		for i := range start.Params {
			start.Params[i] = float64(i) / 3
		}
		start.Optimizer = bytes.Repeat([]byte{1, 2, 3, 5, 7, 11, 13, 17}, 2<<10)
		start.RNG = make([]byte, 64)
		start.DataPerm = []uint32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
		for _, opt := range []Options{
			{Strategy: StrategyDelta, AnchorEvery: 4},
			{Strategy: StrategyDelta, AnchorEvery: 4, ChunkBytes: MinChunkBytes},
		} {
			saw, clean := opt, opt
			saw.Backend, clean.Backend = storage.NewMem(), storage.NewMem()
			ms := [2]*Manager{}
			for i, o := range []Options{saw, clean} {
				var err error
				if ms[i], err = NewManager(o); err != nil {
					t.Fatal(err)
				}
			}
			last := start
			for k := 0; k+3 <= len(ops); k += 3 {
				s := rejectOpsState(last, ops[k], ops[k+1], ops[k+2])
				want := s.Validate()
				_, err := ms[0].Save(s)
				if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
					t.Fatalf("op %d: Save says %v, Validate %v", k/3, err, want)
				}
				if err == nil {
					if _, err := ms[1].Save(s); err != nil {
						t.Fatal(err)
					}
					last = s
				}
			}
			stats := [2]Stats{}
			for i, m := range ms {
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				stats[i] = m.Stats()
				stats[i].Cost, stats[i].copiedBytes = SaveCost{}, 0
			}
			if stats[0] != stats[1] {
				t.Fatalf("chunked %v: the manager that saw the rejected states counts %+v, the one that did not %+v", opt.ChunkBytes > 0, stats[0], stats[1])
			}
			keys, _ := saw.Backend.List("")
			if other, _ := clean.Backend.List(""); !slices.Equal(keys, other) {
				t.Fatalf("the manager that saw the rejected states stored %v, the one that did not %v", keys, other)
			}
			for _, key := range keys {
				a, _ := saw.Backend.Get(key)
				if b, _ := clean.Backend.Get(key); !bytes.Equal(a, b) {
					t.Fatalf("%s differs after a rejected save", key)
				}
			}
		}
	})
}

// FuzzSaveMatchesEncode holds a save's one writer — the spans of the live
// state diffed against the last payload, then patched into the payload from
// two saves back or written whole into a fresh buffer — to EncodePayload.
// One state is edited in place between saves: parameters moved and resized,
// the loss history grown, the optimizer blob rewritten, NaNs the save must
// reject. Sync and async managers over monolithic and 8 KiB-chunked stores
// anchor every third save, so anchors' chunk bases and async jobs hold
// buffers a later save would patch, and resizes change the lengths. After
// every accepted save the manager's last payload must be EncodePayload's
// bytes and its map a byte compare with the payload accepted before it; a
// rejected one must fail as Validate does; the newest state must restore.
func FuzzSaveMatchesEncode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0, 9, 10})           // in-place moves only
	f.Add([]byte{0, 1, 2, 1, 40, 0, 0, 5, 6, 2, 9, 9, 0, 1, 1, 1, 3, 3})  // resizes around a rejected NaN
	f.Add([]byte{3, 0, 1, 0, 2, 3, 3, 0, 2, 4, 7, 7, 0, 0, 0, 4, 200, 9}) // loss history growth, optimizer rewrites
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*16)]
		for _, opt := range []Options{
			{Strategy: StrategyDelta, AnchorEvery: 3},
			{Strategy: StrategyDelta, AnchorEvery: 3, Async: true},
			{Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: 8 << 10, Workers: 2},
			{Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: 8 << 10, Async: true},
			{Strategy: StrategyFull, Async: true},
		} {
			opt.Backend = storage.NewMem()
			m, err := NewManager(opt)
			if err != nil {
				t.Fatal(err)
			}
			s := NewTrainingState()
			s.Params = make([]float64, 3000)
			for i := range s.Params {
				s.Params[i] = float64(i)
			}
			s.Optimizer = bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1000)
			var prev []byte // the payload accepted last
			var saved *TrainingState
			for k := 0; k+3 <= len(ops); k += 3 {
				op, a, b := ops[k]%5, int(ops[k+1]), int(ops[k+2])
				s.Step++
				undo := func() {}
				switch op {
				case 0: // a few parameters moved in place
					for j := 0; j <= b%8; j++ {
						s.Params[(a*len(s.Params)/256+j*97)%len(s.Params)] += float64(b + 1)
					}
				case 1: // a resize, its new parameters over whatever the capacity held
					n := 256 + 32*(a^b)
					for len(s.Params) < n {
						s.Params = append(s.Params, float64(len(s.Params)))
					}
					s.Params = s.Params[:n]
				case 2: // a NaN the save must reject
					i, v := a*len(s.Params)/256, s.Params[a*len(s.Params)/256]
					s.Params[i] = math.NaN()
					undo = func() { s.Params[i] = v }
				case 3:
					s.LossHistory = append(s.LossHistory, float64(a))
				case 4:
					for j := 0; j < b; j++ {
						s.Optimizer[(a*37+j*53)%len(s.Optimizer)] ^= byte(j + 1)
					}
				}
				want := s.Validate()
				if _, err := m.Save(s); (err == nil) != (want == nil) {
					t.Fatalf("op %d: Save says %v, Validate %v", k/3, err, want)
				} else if err != nil {
					undo()
					continue
				}
				enc, _ := EncodePayload(s)
				m.mu.Lock()
				p := m.lastPayload
				m.mu.Unlock()
				if !bytes.Equal(p.b, enc) {
					t.Fatalf("%+v op %d: the sealed payload is not EncodePayload's", opt, k/3)
				}
				if prev != nil && !slices.Equal(p.dirty.bits, diffMap(enc, prev, granuleBytes).bits) {
					t.Fatalf("%+v op %d: the map is not a byte compare of the sealed payloads", opt, k/3)
				}
				prev, saved = enc, s.Clone()
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if saved != nil {
				mustRestoreLatest(t, opt.Backend, saved)
			}
		}
	})
}

// TestPinnedLaggingBufferIsWrittenWhole: a save patches the payload from
// two saves back only while the manager holds it alone. Two holders pin it
// here — the first anchor as its lineage's chunk base, and an async job a
// gated backend keeps mid-commit — and the save that finds it pinned writes
// every byte of a fresh buffer, where the same stream on a monolithic store
// patches. Once the holder lets go the next save patches again, every
// newest state restores, and Close gives back every pooled buffer.
func TestPinnedLaggingBufferIsWrittenWhole(t *testing.T) {
	out := pooledOut.Load()
	gated := gateManifests(storage.NewMem())
	for _, tc := range []struct {
		name  string
		opt   Options
		whole []bool // per save: written whole
	}{
		{"monolithic", Options{Backend: storage.NewMem(), Strategy: StrategyDelta}, []bool{true, true, false, false}},
		{"anchor chunk base", Options{Backend: storage.NewMem(), Strategy: StrategyDelta, ChunkBytes: MinChunkBytes}, []bool{true, true, true, false}},
		{"async job", Options{Backend: gated, Strategy: StrategyFull, Async: true}, []bool{true, true, true, false}},
	} {
		m, err := NewManager(tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		s := NewTrainingState()
		s.Params = make([]float64, 4096)
		for i, whole := range tc.whole {
			if i == 3 && tc.opt.Async { // the job of save 0 commits
				close(gated.release)
				if err := m.Barrier(); err != nil {
					t.Fatal(err)
				}
			}
			s.Step++
			s.Params[i*1000] = float64(i + 1)
			before := m.Stats().copiedBytes
			res, err := m.Save(s)
			if err != nil {
				t.Fatal(err)
			}
			if copied := m.Stats().copiedBytes - before; (copied == int64(res.PayloadBytes)) != whole {
				t.Errorf("%s: save %d copied %d of its %d payload bytes, want whole %v", tc.name, i, copied, res.PayloadBytes, whole)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		mustRestoreLatest(t, tc.opt.Backend, s)
	}
	if now := pooledOut.Load(); now != out {
		t.Errorf("%d pooled buffers still out after Close", now-out)
	}
}

// BenchmarkSavePaperScale saves at the paper's own scale: T1's largest row
// (12 qubits, 4 layers), a state of 108 parameters, a 1 777-byte optimizer,
// a 1 755-byte gradient accumulator and the RNG, into a directory store.
// Each op is one optimizer step saved as a delta — every parameter, the
// optimizer moments and the accumulator move — monolithic, and in 4 KiB
// chunks. fsyncs/op and dirsyncs/op are the file and directory syncs the
// store issued per save, gated exactly: on a disk a save this small costs
// its syncs, not its bytes. The anchor and 63 deltas are saved before the
// timer starts, so that allocs/op does not move with b.N.
func BenchmarkSavePaperScale(b *testing.B) {
	for _, c := range []struct {
		name  string
		chunk int
	}{{"mono", 0}, {"chunked", MinChunkBytes}} {
		b.Run(c.name, func(b *testing.B) {
			root := b.TempDir()
			// Every chunk fan-out directory exists, as in a store saved to
			// for a while: the first chunk into a missing one pays a failed
			// create and a MkdirAll, which would make allocs/op fall with b.N.
			for i := range 256 {
				if err := os.MkdirAll(filepath.Join(root, ChunkPrefix, fmt.Sprintf("%02x", i)), 0o755); err != nil {
					b.Fatal(err)
				}
			}
			store, err := storage.NewLocal(root)
			if err != nil {
				b.Fatal(err)
			}
			m, err := NewManager(Options{Backend: store, Strategy: StrategyDelta, AnchorEvery: 1 << 30, ChunkBytes: c.chunk})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			r := rand.New(rand.NewSource(12))
			s := NewTrainingState()
			s.Params, s.BestParams = make([]float64, 108), make([]float64, 108)
			s.Optimizer, s.RNG, s.GradAccum = make([]byte, 1777), make([]byte, 200), make([]byte, 1755)
			s.LossHistory = make([]float64, 32)
			r.Read(s.RNG)
			s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "hea-q12-l4", ProblemFP: "tfim-n12", OptimizerName: "adam"}
			step := func() {
				for i := range s.Params {
					s.Params[i] += 1e-2 * r.NormFloat64()
				}
				r.Read(s.Optimizer)
				r.Read(s.GradAccum)
				s.LossHistory[s.Step%32] = r.Float64()
				s.Step++
				if _, err := m.Save(s); err != nil {
					b.Fatal(err)
				}
			}
			for range 64 {
				step()
			}
			file0, dir0 := store.Syncs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			file, dir := store.Syncs()
			b.ReportMetric(float64(file-file0)/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(dir-dir0)/float64(b.N), "dirsyncs/op")
		})
	}
}
