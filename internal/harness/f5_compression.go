package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/qpu"
	"repro/internal/train"
)

// F5Row is one sampled step of the compression-trajectory figure: the
// on-disk size of a full vs delta snapshot at that point in training, plus
// the size of a sub-step delta (between two checkpoints a few gradient
// work units apart, where only the accumulator changed).
type F5Row struct {
	Step          int
	PayloadB      int
	FullFileB     int
	DeltaFileB    int
	Ratio         float64 // full / delta (step granularity)
	SubDeltaFileB int
	SubRatio      float64 // full / sub-step delta
}

// RunF5Compression trains a VQE workload and, every sampleEvery steps,
// measures the size of a full snapshot and of a delta against the previous
// sample. The ratio trajectory shows where incremental checkpointing pays
// (parameters settling) and where it does not (early training, post-anchor
// resets).
func RunF5Compression(steps, sampleEvery int) ([]F5Row, error) {
	if steps < 2 || sampleEvery < 1 {
		return nil, fmt.Errorf("harness: bad F5 inputs steps=%d every=%d", steps, sampleEvery)
	}
	cfg, err := vqeTrainConfig(4, 3, 64, 888, qpu.Config{})
	if err != nil {
		return nil, err
	}
	tr, err := train.New(cfg)
	if err != nil {
		return nil, err
	}
	var rows []F5Row
	var prevPayload []byte
	for s := 0; s < steps; s += sampleEvery {
		target := s + sampleEvery
		if target > steps {
			target = steps
		}
		if _, err := tr.Run(target); err != nil {
			return nil, err
		}
		st, err := tr.Capture()
		if err != nil {
			return nil, err
		}
		payload, err := core.EncodePayload(st)
		if err != nil {
			return nil, err
		}
		full, err := core.EncodeSnapshotFile(core.Header{
			Kind: core.KindFull, PayloadHash: core.PayloadHash(payload),
		}, payload)
		if err != nil {
			return nil, err
		}
		row := F5Row{Step: int(tr.Step()), PayloadB: len(payload), FullFileB: len(full)}

		// Sub-step delta: advance a few gradient work units into the next
		// step — only the accumulator (and RNG position) changes — and
		// measure the delta against the step-boundary payload.
		if err := tr.RunUnits(4); err != nil {
			return nil, err
		}
		stSub, err := tr.Capture()
		if err != nil {
			return nil, err
		}
		subPayload, err := core.EncodePayload(stSub)
		if err != nil {
			return nil, err
		}
		subBody := core.AppendDelta(nil, payload, subPayload)
		subFile, err := core.EncodeSnapshotFile(core.Header{
			Kind:     core.KindDelta,
			BaseHash: core.PayloadHash(payload), PayloadHash: core.PayloadHash(subPayload),
		}, subBody)
		if err != nil {
			return nil, err
		}
		row.SubDeltaFileB = len(subFile)
		row.SubRatio = float64(len(full)) / float64(len(subFile))

		if prevPayload != nil {
			deltaBody := core.AppendDelta(nil, prevPayload, payload)
			deltaFile, err := core.EncodeSnapshotFile(core.Header{
				Kind:     core.KindDelta,
				BaseHash: core.PayloadHash(prevPayload), PayloadHash: core.PayloadHash(payload),
			}, deltaBody)
			if err != nil {
				return nil, err
			}
			row.DeltaFileB = len(deltaFile)
			row.Ratio = float64(len(full)) / float64(len(deltaFile))
		}
		rows = append(rows, row)
		prevPayload = payload
	}
	return rows, nil
}

// F5Table renders the rows.
func F5Table(rows []F5Row) *Table {
	t := &Table{
		Title: "Figure 5 — Full vs delta snapshot size across the training trajectory",
		Columns: []string{"step", "payload", "full file", "delta file", "full/delta",
			"substep delta", "full/substep"},
	}
	for _, r := range rows {
		sub := fmt.Sprintf("%d", r.SubDeltaFileB)
		subRatio := fmt.Sprintf("%.2f×", r.SubRatio)
		if r.DeltaFileB == 0 {
			t.Add(r.Step, r.PayloadB, r.FullFileB, "-", "-", sub, subRatio)
			continue
		}
		t.Add(r.Step, r.PayloadB, r.FullFileB, r.DeltaFileB, fmt.Sprintf("%.2f×", r.Ratio), sub, subRatio)
	}
	return t
}
