package core

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// subStepStates is the paper's sub-step regime in small: a 256 KiB
// parameter vector and a dense optimizer blob of which each step perturbs
// one 8-parameter window, so two states an anchor interval apart differ in
// a handful of chunks (≈ 0.3 % of the bytes) and nothing grows.
func subStepStates(n int) []*TrainingState {
	r := rand.New(rand.NewSource(14))
	s := NewTrainingState()
	s.Params = make([]float64, 32<<10)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	s.Optimizer = make([]byte, 64<<10)
	r.Read(s.Optimizer)
	s.RNG = make([]byte, 200)
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	out := make([]*TrainingState, n)
	for i := range out {
		s = s.Clone()
		s.Step = uint64(i)
		for k := 0; k < 8; k++ {
			s.Params[(i*8+k)%len(s.Params)] += 1e-9
		}
		out[i] = s
	}
	return out
}

// chunkOpBackend counts the Stat and Put calls that reach the chunk
// namespace, and fails the manifest Put of one chosen snapshot key. Over a
// Mem it declares no optional capability, so every chunk probe and write
// comes through Stat and Put.
type chunkOpBackend struct {
	*storage.Observed
	mu       sync.Mutex
	chunkOps int
	failKey  string // set only between saves
}

var errInjected = errors.New("injected manifest put failure")

func newChunkOpBackend(base storage.Backend) *chunkOpBackend {
	b := &chunkOpBackend{}
	b.Observed = storage.Observe(base, b.count)
	return b
}

func (b *chunkOpBackend) count(op storage.Op) (int64, error) {
	if op.After || op.Kind != storage.OpStat && op.Kind != storage.OpPut {
		return 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if strings.HasPrefix(op.Key, ChunkPrefix) {
		b.chunkOps++
	}
	if op.Kind == storage.OpPut && op.Key == b.failKey {
		return 0, errInjected
	}
	return 0, nil
}

func (b *chunkOpBackend) ops() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chunkOps
}

// chunkAddrs lists every chunk address in b's chunk store.
func chunkAddrs(t testing.TB, b storage.Backend) []string {
	t.Helper()
	addrs, err := storage.NewChunkStore(storage.WithPrefix(b, ChunkPrefix)).List()
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// saveDelta saves one state, waits for it to commit, and returns the
// chunk counters and backend chunk operations that save alone added.
func saveDelta(t *testing.T, m *Manager, b *chunkOpBackend, s *TrainingState) (SaveResult, Stats, int) {
	t.Helper()
	before, opsBefore := m.Stats(), b.ops()
	res, err := m.Save(s)
	if err == nil {
		err = m.Barrier()
	}
	if err != nil {
		t.Fatalf("save step %d: %v", s.Step, err)
	}
	after := m.Stats()
	return res, Stats{
		Chunks:      after.Chunks - before.Chunks,
		CleanChunks: after.CleanChunks - before.CleanChunks,
		DedupHits:   after.DedupHits - before.DedupHits,
	}, b.ops() - opsBefore
}

// TestAnchorReusesPreviousAnchorChunks is the bar for the per-kind base:
// the second anchor of a sub-step stream is compared against the first
// anchor, not against the delta saved just before it, so nearly all of it
// is recognized clean and no Stat or Put reaches the store for those
// chunks — in the sync and the async pipeline alike.
func TestAnchorReusesPreviousAnchorChunks(t *testing.T) {
	states := subStepStates(9)
	for _, async := range []bool{false, true} {
		b := newChunkOpBackend(storage.NewMem())
		m, err := NewManager(Options{
			Backend: b, Strategy: StrategyDelta, AnchorEvery: 4,
			ChunkBytes: MinChunkBytes, Workers: 2, Async: async,
		})
		if err != nil {
			t.Fatal(err)
		}
		anchors := 0
		for i, s := range states {
			res, d, ops := saveDelta(t, m, b, s)
			if (res.Kind == KindFull) != (i%4 == 0) {
				t.Fatalf("async=%v save %d: kind %v", async, i, res.Kind)
			}
			if res.Kind != KindFull {
				continue
			}
			anchors++
			dirty := d.Chunks - d.CleanChunks
			switch {
			case i == 0 && d.CleanChunks != 0:
				t.Errorf("async=%v: first anchor claims %d clean chunks", async, d.CleanChunks)
			case i > 0 && d.CleanChunks*10 < d.Chunks*9:
				t.Errorf("async=%v anchor %d: %d of %d chunks clean, want ≥ 90%%", async, i, d.CleanChunks, d.Chunks)
			}
			// A dirty chunk costs at most one Stat and one Put; a clean one
			// must cost nothing.
			if ops > 2*dirty {
				t.Errorf("async=%v anchor %d: %d chunk store ops for %d dirty chunks (%d clean)", async, i, ops, dirty, d.CleanChunks)
			}
		}
		if anchors != 3 {
			t.Fatalf("async=%v: %d anchors, want 3", async, anchors)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(states[len(states)-1]) {
			t.Errorf("async=%v: restore not bitwise-identical", async)
		}
		if ok, problems, err := VerifyBackend(b); err != nil || len(problems) != 0 || ok != len(states) {
			t.Errorf("async=%v: verify ok=%d problems=%v err=%v", async, ok, problems, err)
		}
	}
}

// TestFailedAnchorCommitLeavesBaseUnadopted fails an anchor's manifest
// Put, lets a collection reap the chunks that anchor ingested (nothing
// references them), and then saves the same content as the next anchor. A
// base adopted before its manifest committed would hand out the reaped
// addresses; the lineage must still hold the last *committed* anchor and
// re-ingest what changed.
func TestFailedAnchorCommitLeavesBaseUnadopted(t *testing.T) {
	states := subStepStates(5)
	b := newChunkOpBackend(storage.NewMem())
	m, err := NewManager(Options{
		Backend: b, Strategy: StrategyDelta, AnchorEvery: 2,
		ChunkBytes: MinChunkBytes, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states[:2] { // anchor 0, delta 1
		saveDelta(t, m, b, s)
	}
	b.failKey = snapshotName(2, KindFull) // no save in flight: the manager is synchronous
	if _, err := m.Save(states[2]); !errors.Is(err, errInjected) {
		t.Fatalf("anchor 2: err = %v, want the injected failure", err)
	}
	if got := m.bases[0].seq; m.bases[0].body == nil || got != 0 {
		t.Fatalf("anchor base after failed commit: seq %d, want the committed anchor 0", got)
	}
	if pinned := m.pinnedChunks(); len(pinned) != 0 {
		t.Errorf("%d pin(s) leaked past the aborted commit", len(pinned))
	}
	saveDelta(t, m, b, states[3]) // delta off the uncommitted payload: unrecoverable, by design
	if removed, _, err := m.CollectOrphans(); err != nil || removed == 0 {
		t.Fatalf("collection after the failed anchor: removed=%d err=%v, want its orphans reaped", removed, err)
	}
	again := states[2].Clone()
	again.Step = 4
	res, d, _ := saveDelta(t, m, b, again)
	if res.Kind != KindFull || d.CleanChunks == 0 || d.CleanChunks == d.Chunks {
		t.Fatalf("anchor 4: kind %v, %d of %d chunks clean; want a full compared against anchor 0", res.Kind, d.CleanChunks, d.Chunks)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, report, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Seq != 4 || !got.Equal(again) {
		t.Errorf("restored seq %d, bitwise=%v; want anchor 4 intact", report.Seq, got.Equal(again))
	}
}

// TestRestartFirstAnchorReusesNothing: the bases die with the manager, so
// a successor on the same store re-derives every address of its first
// anchor (all dedup hits, no clean chunks) and the store stays whole.
func TestRestartFirstAnchorReusesNothing(t *testing.T) {
	states := subStepStates(4)
	b := newChunkOpBackend(storage.NewMem())
	opts := Options{Backend: b, Strategy: StrategyDelta, AnchorEvery: 2, ChunkBytes: MinChunkBytes, Workers: 2}
	m1, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states[:3] {
		saveDelta(t, m1, b, s)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if m1.bases[0].body != nil || m1.bases[1].body != nil {
		t.Error("Close left a dirty-compare base retained")
	}
	m2, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, d, _ := saveDelta(t, m2, b, states[3])
	if res.Kind != KindFull || d.CleanChunks != 0 || d.DedupHits == 0 {
		t.Errorf("first save after restart: kind %v, clean %d, dedup %d of %d", res.Kind, d.CleanChunks, d.DedupHits, d.Chunks)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[3]) {
		t.Error("restore after restart not bitwise-identical")
	}
	if ok, problems, err := VerifyBackend(b); err != nil || len(problems) != 0 || ok != 4 {
		t.Errorf("verify ok=%d problems=%v err=%v", ok, problems, err)
	}
}

// TestAnchorReuseSurvivesRetention runs Retain 1 — every new anchor
// deletes the whole previous chain — with an explicit collection after
// every save. The anchor base is the live chain's own anchor, so what an
// anchor reuses is always in the keep-set; the delta base is dropped when
// its chain is deleted, so the first delta of a chain must not hand out
// addresses of the reaped one.
func TestAnchorReuseSurvivesRetention(t *testing.T) {
	states := subStepStates(10)
	b := newChunkOpBackend(storage.NewMem())
	m, err := NewManager(Options{
		Backend: b, Strategy: StrategyDelta, AnchorEvery: 3, Retain: 1,
		ChunkBytes: MinChunkBytes, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		res, d, _ := saveDelta(t, m, b, s)
		if res.Kind == KindFull && i > 0 && d.CleanChunks*10 < d.Chunks*9 {
			t.Errorf("anchor %d: %d of %d chunks clean", i, d.CleanChunks, d.Chunks)
		}
		if i%3 == 1 && d.CleanChunks != 0 && i > 1 {
			t.Errorf("delta %d reused %d chunks of a chain retention deleted", i, d.CleanChunks)
		}
		if _, _, err := m.CollectOrphans(); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestBackendOptions(b, nil, RestoreOptions{})
		if err != nil {
			t.Fatalf("restore after save %d: %v", i, err)
		}
		if !got.Equal(s) {
			t.Fatalf("restore after save %d not bitwise-identical", i)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// One chain survives: anchor 9 alone.
	if ok, problems, err := VerifyBackend(b); err != nil || len(problems) != 0 || ok != 1 {
		t.Errorf("verify ok=%d problems=%v err=%v", ok, problems, err)
	}
}

// TestIncrementalResaveWritesNoChunkBytes is the regression bar for the
// dirty-chunk engine: re-saving an unchanged state writes zero new chunk
// bytes — every chunk is recognized clean and only the (small) manifest
// reaches the backend.
func TestIncrementalResaveWritesNoChunkBytes(t *testing.T) {
	mem := storage.NewMem()
	mgr, err := NewManager(Options{
		Backend: mem, Strategy: StrategyFull, ChunkBytes: MinChunkBytes, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := bigSeqStates(1)[0]
	if _, err := mgr.Save(st); err != nil {
		t.Fatal(err)
	}
	before := mgr.Stats()
	res, err := mgr.Save(st) // byte-identical payload, new sequence number
	if err != nil {
		t.Fatal(err)
	}
	after := mgr.Stats()
	if got := after.ChunkBytes - before.ChunkBytes; got != 0 {
		t.Errorf("unchanged re-save wrote %d chunk bytes, want 0", got)
	}
	perSave := after.Chunks - before.Chunks
	if clean := after.CleanChunks - before.CleanChunks; clean != perSave || perSave == 0 {
		t.Errorf("re-save: %d of %d chunks clean, want all", clean, perSave)
	}
	// The only traffic is the manifest file itself.
	if wrote := after.BytesWritten - before.BytesWritten; wrote != int64(res.FileBytes) || wrote == 0 {
		t.Errorf("re-save wrote %d bytes, manifest is %d", wrote, res.FileBytes)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Errorf("restore after clean re-save not bitwise-identical")
	}
}

// TestIncrementalMatchesFullIngest drives the same state stream through
// the incremental engine and the full-ingest pipeline and demands
// identical results everywhere it counts: bitwise-identical restores and
// a byte-identical chunk namespace (clean-chunk reuse must reproduce
// exactly the addresses a full ingest would have computed).
func TestIncrementalMatchesFullIngest(t *testing.T) {
	states := bigSeqStates(8)
	anchorClean := 0 // clean chunks on anchor saves after the first, incremental run
	run := func(fullIngest bool) (*storage.Mem, *TrainingState, Stats) {
		mem := storage.NewMem()
		mgr, err := NewManager(Options{
			Backend: mem, Strategy: StrategyDelta, AnchorEvery: 3,
			ChunkBytes: MinChunkBytes, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr.fullIngest = fullIngest
		for _, s := range states {
			before := mgr.Stats().CleanChunks
			res, err := mgr.Save(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind == KindFull && res.Seq > 0 {
				anchorClean += mgr.Stats().CleanChunks - before
			}
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return mem, got, mgr.Stats()
	}
	memFull, gotFull, statsFull := run(true)
	memIncr, gotIncr, statsIncr := run(false)
	if !gotFull.Equal(states[7]) || !gotIncr.Equal(states[7]) {
		t.Fatal("restore not bitwise-identical to the saved state")
	}
	if !gotFull.Equal(gotIncr) {
		t.Fatal("incremental and full-ingest restores diverge")
	}
	if a, b := chunkAddrs(t, memFull), chunkAddrs(t, memIncr); !reflect.DeepEqual(a, b) {
		t.Errorf("chunk namespaces diverge: full-ingest %d addrs, incremental %d", len(a), len(b))
	}
	if statsIncr.CleanChunks == 0 {
		t.Errorf("incremental run recognized no clean chunks: %+v", statsIncr)
	}
	if statsFull.CleanChunks != 0 {
		t.Errorf("full-ingest run claims clean chunks: %+v", statsFull)
	}
	if anchorClean == 0 {
		t.Error("anchors 3 and 6 reused no chunk of the anchor before them")
	}
	if statsIncr.BytesWritten > statsFull.BytesWritten {
		t.Errorf("incremental wrote more (%d) than full ingest (%d)",
			statsIncr.BytesWritten, statsFull.BytesWritten)
	}

	// Resizes, through the same run: a parameter vector that grows or
	// shrinks every save shifts every later section, by a whole number of
	// chunks or not. Every object must still be byte-identical, and the
	// counters may differ only in which reused chunks count as clean
	// instead of as dedup hits. Against an offset-indexed compare (offset:
	// what it reuses on anchors 3 and 6), the planner reuses the same
	// chunks unless the shift is whole, when it also reuses those past it.
	for _, row := range []struct {
		name   string
		floats int // parameters added per save; negative removes
		offset int
	}{{"grow-partial", 100, 14}, {"grow-whole", MinChunkBytes / 8, 17}, {"shrink-partial", -300, 8}, {"shrink-whole", -MinChunkBytes / 8, 5}} {
		states, anchorClean = resizedStates(8, row.floats), 0
		memFull, gotFull, statsFull = run(true)
		memIncr, gotIncr, statsIncr = run(false)
		if !gotFull.Equal(states[7]) || !gotIncr.Equal(states[7]) {
			t.Fatalf("%s: restore not bitwise-identical to the saved state", row.name)
		}
		if a, b := objectBytes(t, memFull), objectBytes(t, memIncr); !maps.Equal(a, b) {
			t.Errorf("%s: stores diverge: full-ingest %d objects, incremental %d", row.name, len(a), len(b))
		}
		if f, i := statsFull, statsIncr; f.Chunks != i.Chunks || f.BytesWritten != i.BytesWritten ||
			f.ChunkBytes != i.ChunkBytes || f.DedupHits != i.DedupHits+i.CleanChunks {
			t.Errorf("%s: full-ingest %+v, incremental %+v", row.name, f, i)
		}
		if whole := row.floats%(MinChunkBytes/8) == 0; whole && anchorClean <= row.offset || !whole && anchorClean != row.offset {
			t.Errorf("%s: anchors 3 and 6 reused %d chunks, an offset-indexed compare %d", row.name, anchorClean, row.offset)
		}
	}
}

// TestAsyncGrowingMatchesFullIngest is TestIncrementalMatchesFullIngest's
// asynchronous sibling, over sub-step states whose payload grows every third
// save: between growths the deltas keep their length and plan by their
// dirty maps, across one they compare bytes. A second window jumps 600
// parameters a save, so consecutive deltas dirty different granules. Under
// both chunkers the store must be the full-ingest oracle's byte for byte,
// and the clean and dedup counts those the byte-compare planner the maps
// replaced reached. Saved sync or async, every payload a save seals from its
// map is EncodePayload's byte for byte.
func TestAsyncGrowingMatchesFullIngest(t *testing.T) {
	states := subStepStates(24)
	var loss []float64
	for i, s := range states {
		if i%3 == 2 {
			loss = append(loss, 1/float64(i+1))
		}
		s.LossHistory = loss[:len(loss):len(loss)]
		for k := 0; k < 8; k++ {
			s.Params[(i*600+k)%len(s.Params)] += 1e-3
		}
	}
	for _, row := range []struct {
		chunker      Chunker
		clean, dedup int // the byte-compare planner's counts
	}{{ChunkerFixed, 1668, 101}, {ChunkerCDC, 539, 73}} {
		for _, async := range []bool{false, true} {
			run := func(fullIngest bool) (map[string]string, Stats) {
				mem := storage.NewMem()
				mgr, err := NewManager(Options{
					Backend: mem, Strategy: StrategyDelta, AnchorEvery: 4, Async: async,
					ChunkBytes: MinChunkBytes, Chunker: row.chunker, Workers: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				mgr.fullIngest = fullIngest
				for i, s := range states {
					if _, err := mgr.Save(s); err != nil {
						t.Fatal(err)
					}
					if want, _ := EncodePayload(s); !bytes.Equal(mgr.lastPayload.b, want) {
						t.Fatalf("chunker %d, async %v: save %d sealed a payload that is not EncodePayload's", row.chunker, async, i)
					}
				}
				if err := mgr.Close(); err != nil {
					t.Fatal(err)
				}
				got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(states[len(states)-1]) {
					t.Fatalf("chunker %d: restore not bitwise-identical to the saved state", row.chunker)
				}
				return objectBytes(t, mem), mgr.Stats()
			}
			full, _ := run(true)
			incr, stats := run(false)
			if !maps.Equal(full, incr) {
				t.Errorf("chunker %d, async %v: stores diverge: full-ingest %d objects, incremental %d", row.chunker, async, len(full), len(incr))
			}
			if stats.CleanChunks != row.clean || stats.DedupHits != row.dedup {
				t.Errorf("chunker %d, async %v: %d clean chunks and %d dedup hits, the byte-compare planner %d and %d",
					row.chunker, async, stats.CleanChunks, stats.DedupHits, row.clean, row.dedup)
			}
		}
	}
}

// resizedStates is bigSeqStates with a 4096-entry parameter vector that
// changes length by floats every save, a random optimizer blob (zero runs
// would match at any shift) and a loss history that never grows: every
// section after the parameters shifts by 8·floats bytes per save.
func resizedStates(n, floats int) []*TrainingState {
	out := bigSeqStates(n)
	blob := make([]byte, 32<<10)
	rand.New(rand.NewSource(27)).Read(blob)
	for i, s := range out {
		s.Optimizer = blob
		s.Params = make([]float64, 4096+i*floats)
		for j := range s.Params {
			s.Params[j] = float64(j) * 0.137
		}
		s.Params[i] += 1e-9
		s.LossHistory = nil
	}
	return out
}

// objectBytes maps every key in b to the object's bytes.
func objectBytes(t *testing.T, b storage.Backend) map[string]string {
	t.Helper()
	keys, err := b.List("")
	if err != nil {
		t.Fatal(err)
	}
	objs := make(map[string]string, len(keys))
	for _, k := range keys {
		data, err := b.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		objs[k] = string(data)
	}
	return objs
}

// TestIncrementalAdaptiveRawChunks feeds the pipeline a state whose bulk
// is incompressible and checks the adaptive probe stores those chunks raw
// while recovery stays bitwise-exact.
func TestIncrementalAdaptiveRawChunks(t *testing.T) {
	st := NewTrainingState()
	st.Optimizer = make([]byte, 128<<10)
	rand.New(rand.NewSource(3)).Read(st.Optimizer)
	st.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	mem := storage.NewMem()
	mgr, err := NewManager(Options{
		Backend: mem, Strategy: StrategyFull, ChunkBytes: 16 << 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Save(st); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	stats := mgr.Stats()
	if stats.RawChunks == 0 {
		t.Errorf("no raw chunks for incompressible state: %+v", stats)
	}
	got, _, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(st) {
		t.Errorf("raw-chunk restore not bitwise-identical")
	}
}

// BenchmarkSaveAnchor times the anchor saves of a sub-step stream — the
// save the per-kind base exists for, and a third of the save-phase wall of
// the repo's `substep_*` benchmark workloads: 2 MiB of parameters, 8 KiB
// chunks, an anchor every 16 saves, ≈ 0.3 % of the bytes dirty per save.
// The 15 delta saves between two anchors run with the timer stopped.
// clean-% is the share of an anchor's chunks reused from the anchor before
// it; hashed-chunks/op the rest, which go through maphash and — once per
// distinct chunk — flate, SHA-256 and the store's exists-check. crc-B/op is
// what the seal fed CRC-32C on the costliest timed anchor, 12 435 bytes: the
// section edges and the two granules under the step's window. One anchor in
// 64 has its window on the parameters' head, a partial granule read anyway,
// and feeds 4 096 fewer; a mean would move with b.N, and the gate is exact.
// hashed-chunks/op and copied-B/op, the bytes the seal wrote into the
// payload buffer from two saves back, are maxima over the timed anchors
// too. The <stage>-ns/op columns split the timed anchors' time by the save
// ledger's stages (SaveCost); like ns/op they are advisory.
func BenchmarkSaveAnchor(b *testing.B) {
	const params, every, window = 256 << 10, 16, 768
	r := rand.New(rand.NewSource(14))
	s := NewTrainingState()
	s.Params = make([]float64, params)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	m, err := NewManager(Options{
		Backend: storage.NewMem(), Strategy: StrategyDelta, AnchorEvery: every,
		ChunkBytes: 8 << 10, Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	save := func() SaveResult {
		for j := 0; j < window; j++ {
			s.Params[(int(s.Step)*window+j)%params] += 1e-3 * r.NormFloat64()
		}
		s.Step++
		res, err := m.Save(s)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	save() // the first anchor has no base; it is not what steady state costs
	b.SetBytes(8 * params)
	b.ReportAllocs()
	b.ResetTimer()
	var chunks, clean, hashed int
	var crc, copied int64
	var spent [len(stageNames)]time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 1; k < every; k++ {
			save()
		}
		before := m.Stats()
		b.StartTimer()
		res := save()
		b.StopTimer()
		if res.Kind != KindFull {
			b.Fatalf("timed save %d is a %v", res.Seq, res.Kind)
		}
		after := m.Stats()
		chunks += after.Chunks - before.Chunks
		clean += after.CleanChunks - before.CleanChunks
		hashed = max(hashed, after.Chunks-before.Chunks-after.CleanChunks+before.CleanChunks)
		crc = max(crc, after.crcBytes-before.crcBytes)
		copied = max(copied, after.copiedBytes-before.copiedBytes)
		addStages(&spent, before.Cost, after.Cost)
		b.StartTimer()
	}
	b.ReportMetric(100*float64(clean)/float64(chunks), "clean-%")
	b.ReportMetric(float64(hashed), "hashed-chunks/op")
	b.ReportMetric(float64(crc), "crc-B/op")
	b.ReportMetric(float64(copied), "copied-B/op")
	reportStages(b, spent)
}

// BenchmarkSaveSubstep times the delta saves of a sub-step stream on
// BenchmarkSaveAnchor's state — 2 MiB of parameters, 8 KiB chunks — with no
// anchor after the first save. Every op negates the same 64 parameters and
// bumps Step, so every save changes the same payload-identity leaves
// (snapshot.go) of the 2 097 335-byte payload: leaf 0 (Step and the
// counters' CRC), leaf 12 (the parameters at byte 800 070) and the 183-byte
// tail leaf 32 (the parameters' CRC). hashed-B/op is Stats.BytesHashed per
// save, those leaves and the root's input: 2·65 536 + 183 + 8 + 32·33 =
// 132 319 bytes, where a whole-payload hash reads all 2 097 335.
// validated-B/op is the parameter bytes the seal's finiteness check read,
// those under the three granules the save changed: 4 026 + 4 096 + 70 =
// 8 192 bytes, where Validate read all 2 097 152. copied-B/op is what the
// seal wrote into the payload buffer from two saves back: the granules the
// last save's map or this one's marks, the same three, 4 096 + 4 096 + 183
// = 8 375 bytes, where a whole encode wrote 2 097 335. The two saves before
// the timer starts write a fresh buffer whole: the first has none two saves
// back, and the second's is the anchor, pinned as its lineage's chunk base.
// The <stage>-ns/op columns are the save ledger's stages (SaveCost),
// advisory.
func BenchmarkSaveSubstep(b *testing.B) {
	const params, window, at = 256 << 10, 64, 100_000
	r := rand.New(rand.NewSource(14))
	s := NewTrainingState()
	s.Params = make([]float64, params)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	m, err := NewManager(Options{
		Backend: storage.NewMem(), Strategy: StrategyDelta, AnchorEvery: 1 << 30,
		ChunkBytes: 8 << 10, Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	save := func() {
		for j := at; j < at+window; j++ {
			s.Params[j] = -s.Params[j]
		}
		s.Step++
		if res, err := m.Save(s); err != nil {
			b.Fatal(err)
		} else if res.Kind != KindDelta && res.Seq > 0 {
			b.Fatalf("save %d is a %v", res.Seq, res.Kind)
		}
	}
	for range 3 { // the anchor and two deltas
		save()
	}
	b.SetBytes(8 * params)
	b.ReportAllocs()
	before := m.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save()
	}
	b.StopTimer()
	after := m.Stats()
	b.ReportMetric(float64(after.BytesHashed-before.BytesHashed)/float64(b.N), "hashed-B/op")
	b.ReportMetric(float64(after.crcBytes-before.crcBytes)/float64(b.N), "crc-B/op")
	b.ReportMetric(float64(after.validatedBytes-before.validatedBytes)/float64(b.N), "validated-B/op")
	b.ReportMetric(float64(after.copiedBytes-before.copiedBytes)/float64(b.N), "copied-B/op")
	var spent [len(stageNames)]time.Duration
	addStages(&spent, before.Cost, after.Cost)
	reportStages(b, spent)
}
