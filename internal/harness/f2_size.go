package harness

import (
	"repro/internal/core"
	"repro/internal/qpu"
	"repro/internal/train"
)

// F2Row is one point of the size-scaling figure: checkpoint footprint vs
// parameter count, with the exponential statevector-dump curve the paper
// contrasts against.
type F2Row struct {
	Qubits, Layers, Params int
	PayloadB               int // canonical payload (uncompressed)
	FullFileB              int // on-disk full snapshot (flate)
	DeltaFileB             int // one-step delta snapshot
	StatevectorB           int64
}

// RunF2Size sweeps ansatz shapes and measures checkpoint sizes after a few
// training steps (so optimizer moments and loss history are realistic).
func RunF2Size(shapes [][2]int) ([]F2Row, error) {
	var rows []F2Row
	for _, sh := range shapes {
		n, layers := sh[0], sh[1]
		cfg, err := vqeTrainConfig(n, layers, 32, 2000+uint64(n)*10+uint64(layers), qpu.Config{})
		if err != nil {
			return nil, err
		}
		tr, err := train.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := tr.Run(3); err != nil {
			return nil, err
		}
		st0, err := tr.Capture()
		if err != nil {
			return nil, err
		}
		if _, err := tr.Run(4); err != nil {
			return nil, err
		}
		st1, err := tr.Capture()
		if err != nil {
			return nil, err
		}

		p0, err := core.EncodePayload(st0)
		if err != nil {
			return nil, err
		}
		p1, err := core.EncodePayload(st1)
		if err != nil {
			return nil, err
		}
		full, err := core.EncodeSnapshotFile(core.Header{
			Kind: core.KindFull, PayloadHash: core.PayloadHash(p1),
		}, p1)
		if err != nil {
			return nil, err
		}
		deltaBody := core.AppendDelta(nil, p0, p1)
		deltaFile, err := core.EncodeSnapshotFile(core.Header{
			Kind: core.KindDelta, BaseHash: core.PayloadHash(p0), PayloadHash: core.PayloadHash(p1),
		}, deltaBody)
		if err != nil {
			return nil, err
		}
		rows = append(rows, F2Row{
			Qubits: n, Layers: layers, Params: cfg.Circuit.NumParams,
			PayloadB:     len(p1),
			FullFileB:    len(full),
			DeltaFileB:   len(deltaFile),
			StatevectorB: int64(16) << uint(n),
		})
	}
	return rows, nil
}

// F2Table renders the rows.
func F2Table(rows []F2Row) *Table {
	t := &Table{
		Title: "Figure 2 — Checkpoint size vs parameter count (classical state is O(P); statevector dump is O(2^n))",
		Columns: []string{"qubits", "layers", "P", "payload", "full file",
			"delta file", "statevector"},
	}
	for _, r := range rows {
		t.Add(r.Qubits, r.Layers, r.Params, r.PayloadB, r.FullFileB, r.DeltaFileB,
			humanBytes(r.StatevectorB))
	}
	return t
}
