package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/storage"
)

// T11Row is one line of Table 11: fixed-offset vs content-defined
// chunking on the same shifty edit stream. Fixed chunking rewrites
// every chunk downstream of an insertion because all their offsets
// move; FastCDC boundaries ride with the content, so only the chunks
// actually touched by the edit change address. BytesPerSave is what a
// steady-state save costs the backend, WirePerSave what it costs over
// loopback TCP through the address-first dedup handshake, and
// DedupRatio how many logical body bytes each stored byte carries.
type T11Row struct {
	Workload     string // insert | shift | append
	Chunker      string // fixed | cdc
	Saves        int
	RawPerSave   int64   // logical snapshot bytes per steady-state save
	BytesPerSave int64   // backend bytes written per steady-state save
	DedupRatio   float64 // raw bytes / bytes written over the steady saves
	WirePerSave  int64   // client upstream bytes per steady-state save
	Chunks       int     // chunks referenced across the whole run
	AvgChunkKB   float64 // realized mean chunk size (equal-footing check)
	Bitwise      bool    // local AND remote restores are bitwise
}

// The workload: a 256 KiB incompressible optimizer blob edited in the
// three ways that defeat offset-based chunking to different degrees.
// Insert splices t11EditBytes at a pseudo-random interior offset each
// save (everything after the splice shifts); shift splices at offset 0
// (the whole blob shifts); append only grows the tail (the one case
// fixed chunking already handles, kept as the control).
const (
	t11BlobBytes  = 256 << 10
	t11ChunkKB    = 8
	t11EditBytes  = 64
	t11AppendGrow = 4096
)

var t11Workloads = []string{"insert", "shift", "append"}

// t11Blobs precomputes the per-save blob sequence for one workload so
// the local and remote passes persist byte-identical bodies.
func t11Blobs(workload string, steps int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(0x7e11))
	blob := make([]byte, t11BlobBytes)
	rng.Read(blob)
	blobs := make([][]byte, steps)
	blobs[0] = blob
	for i := 1; i < steps; i++ {
		prev := blobs[i-1]
		var next []byte
		switch workload {
		case "insert", "shift":
			at := 0
			if workload == "insert" {
				at = rng.Intn(len(prev))
			}
			edit := make([]byte, t11EditBytes)
			rng.Read(edit)
			next = make([]byte, 0, len(prev)+t11EditBytes)
			next = append(next, prev[:at]...)
			next = append(next, edit...)
			next = append(next, prev[at:]...)
		case "append":
			grow := make([]byte, t11AppendGrow)
			rng.Read(grow)
			next = append(append(make([]byte, 0, len(prev)+t11AppendGrow), prev...), grow...)
		default:
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		blobs[i] = next
	}
	return blobs, nil
}

func t11State(step int, blob []byte) *core.TrainingState {
	st := core.NewTrainingState()
	st.Step = uint64(step)
	st.Params = []float64{0.25, 0.5, 0.75, 1}
	st.Optimizer = blob
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "t11", ProblemFP: "t11", OptimizerName: "adam"}
	return st
}

// RunT11CDC persists steps snapshots of the three edit streams through
// both chunkers at the same 8 KiB target chunk size and reports the
// steady-state storage and wire cost of each combination. Every
// configuration must restore bitwise, locally and through the server.
func RunT11CDC(steps int) ([]T11Row, error) {
	if steps < 3 {
		return nil, fmt.Errorf("harness: T11 needs ≥3 steps")
	}
	var rows []T11Row
	for _, w := range t11Workloads {
		blobs, err := t11Blobs(w, steps)
		if err != nil {
			return nil, fmt.Errorf("harness: T11 %s: %w", w, err)
		}
		for _, chunker := range []core.Chunker{core.ChunkerFixed, core.ChunkerCDC} {
			row, err := t11RunOne(w, chunker, blobs)
			if err != nil {
				return nil, fmt.Errorf("harness: T11 %s/%s: %w", w, chunker, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func t11Options(chunker core.Chunker) core.Options {
	return core.Options{
		Strategy:   core.StrategyFull,
		ChunkBytes: t11ChunkKB << 10,
		Chunker:    chunker,
		Workers:    4,
	}
}

func t11RunOne(workload string, chunker core.Chunker, blobs [][]byte) (T11Row, error) {
	steps := len(blobs)

	// Local pass: Mem backend, the Manager's own byte accounting.
	mem := storage.NewMem()
	opt := t11Options(chunker)
	opt.Backend = mem
	mgr, err := core.NewManager(opt)
	if err != nil {
		return T11Row{}, err
	}
	var first core.Stats // the priming save ingests everything
	var rawSteady int64
	var last *core.TrainingState
	for i, blob := range blobs {
		last = t11State(i, blob)
		if _, err := mgr.Save(last); err != nil {
			return T11Row{}, fmt.Errorf("save %d: %w", i, err)
		}
		if i == 0 {
			first = mgr.Stats()
			continue
		}
		payload, err := core.EncodePayload(last)
		if err != nil {
			return T11Row{}, err
		}
		rawSteady += int64(len(payload))
	}
	stats := mgr.Stats()
	if err := mgr.Close(); err != nil {
		return T11Row{}, err
	}
	got, _, err := core.LoadLatestBackendOptions(mem, nil, core.RestoreOptions{})
	if err != nil {
		return T11Row{}, fmt.Errorf("local restore: %w", err)
	}
	bitwise := got.Equal(last)

	// Remote pass: the same bodies through a loopback server; steady
	// wire cost comes from the client's own upstream counter.
	wireSteady, remoteBitwise, err := t11RemotePass(chunker, blobs)
	if err != nil {
		return T11Row{}, err
	}

	steady := int64(steps - 1)
	row := T11Row{
		Workload:     workload,
		Chunker:      chunker.String(),
		Saves:        steps,
		RawPerSave:   rawSteady / steady,
		BytesPerSave: (stats.BytesWritten - first.BytesWritten) / steady,
		WirePerSave:  wireSteady / steady,
		Chunks:       stats.Chunks,
		Bitwise:      bitwise && remoteBitwise,
	}
	if written := stats.BytesWritten - first.BytesWritten; written > 0 {
		row.DedupRatio = float64(rawSteady) / float64(written)
	}
	if stats.Chunks > 0 {
		var rawTotal int64
		for _, blob := range blobs {
			payload, err := core.EncodePayload(t11State(0, blob))
			if err != nil {
				return T11Row{}, err
			}
			rawTotal += int64(len(payload))
		}
		row.AvgChunkKB = float64(rawTotal) / float64(stats.Chunks) / 1024
	}
	return row, nil
}

// t11RemotePass replays the blob sequence against a real loopback HTTP
// server and returns the steady-state upstream bytes plus whether the
// state restores bitwise through the wire.
func t11RemotePass(chunker core.Chunker, blobs [][]byte) (int64, bool, error) {
	svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		return 0, false, err
	}
	defer svc.Close()
	_, url, shutdown, err := serveLoopback(svc, api.LocalOptions{})
	if err != nil {
		return 0, false, err
	}
	defer shutdown()

	client, err := remote.Dial(url, remote.Options{Tenant: "t11"})
	if err != nil {
		return 0, false, err
	}
	defer client.Close()
	view, err := core.JobBackend(client, "t11")
	if err != nil {
		return 0, false, err
	}
	opt := t11Options(chunker)
	opt.Backend = view
	mgr, err := core.NewManager(opt)
	if err != nil {
		return 0, false, err
	}
	var afterFirst int64
	var last *core.TrainingState
	for i, blob := range blobs {
		last = t11State(i, blob)
		if _, err := mgr.Save(last); err != nil {
			return 0, false, fmt.Errorf("remote save %d: %w", i, err)
		}
		if i == 0 {
			afterFirst = client.ClientStats().BytesSent
		}
	}
	if err := mgr.Close(); err != nil {
		return 0, false, err
	}
	wireSteady := client.ClientStats().BytesSent - afterFirst
	got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{})
	if err != nil {
		return 0, false, fmt.Errorf("remote restore: %w", err)
	}
	return wireSteady, got.Equal(last), nil
}

// T11Table renders the rows.
func T11Table(rows []T11Row) *Table {
	t := &Table{
		Title:   "Table 11 — Fixed vs content-defined chunking under shifty edits (256 KiB incompressible blob, 8 KiB target chunks)",
		Columns: []string{"workload", "chunker", "saves", "raw/save", "bytes/save", "dedup-ratio", "wire/save", "chunks", "avg-chunk-KB", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Workload, r.Chunker, r.Saves,
			humanBytes(r.RawPerSave), humanBytes(r.BytesPerSave),
			fmt.Sprintf("%.1f", r.DedupRatio), humanBytes(r.WirePerSave),
			r.Chunks, fmt.Sprintf("%.1f", r.AvgChunkKB), r.Bitwise)
	}
	return t
}
