package main

import (
	"crypto/sha256"
	"testing"

	"repro/internal/core"
)

var tinyShape = shape{Params: 2048, PermLen: 256, GradBytes: 512, Window: 16}

// streamHash hashes the payloads of a stream's first n states.
func streamHash(t *testing.T, seed int64, lane int, step func(*stream), n int) [sha256.Size]byte {
	t.Helper()
	g := newStream(seed, tinyShape, lane, 2)
	h := sha256.New()
	for i := 0; i < n; i++ {
		payload, err := core.EncodePayload(g.state)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(payload)
		step(g)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for name, step := range map[string]func(*stream){"substep": (*stream).substep, "fullstep": (*stream).fullstep} {
		a, b := streamHash(t, 7, 0, step, 40), streamHash(t, 7, 0, step, 40)
		if a != b {
			t.Errorf("%s: same seed gave two different state streams", name)
		}
		if c := streamHash(t, 8, 0, step, 40); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same state stream", name)
		}
	}
}

func TestLanesShareTheBaseAndMutateDisjointWindows(t *testing.T) {
	a, b := newStream(3, tinyShape, 0, 2), newStream(3, tinyShape, 1, 2)
	if !a.state.Equal(b.state) {
		t.Fatal("lanes of one seed must start from the same base state")
	}
	base := a.state.Clone()
	for i := 0; i < 8; i++ {
		a.substep()
		b.substep()
	}
	for i := range base.Params {
		movedA, movedB := a.state.Params[i] != base.Params[i], b.state.Params[i] != base.Params[i]
		if movedA && movedB {
			t.Fatalf("param %d moved in both lanes", i)
		}
	}
}

// dirtyShare is the fraction of payload bytes that differ after step.
func dirtyShare(t *testing.T, step func(*stream)) float64 {
	t.Helper()
	g := newStream(1, fullShape, 0, 1)
	before, err := core.EncodePayload(g.state)
	if err != nil {
		t.Fatal(err)
	}
	step(g)
	after, err := core.EncodePayload(g.state)
	if err != nil {
		t.Fatal(err)
	}
	dirty := max(len(after), len(before)) - min(len(after), len(before))
	for i := 0; i < min(len(after), len(before)); i++ {
		if before[i] != after[i] {
			dirty++
		}
	}
	return float64(dirty) / float64(len(after))
}

func TestMutationStreamsHaveTheSpecifiedDirtyShare(t *testing.T) {
	if len(mustEncode(t, newStream(1, fullShape, 0, 1).state)) < 2<<20 {
		t.Error("full-size payload is below 2 MiB")
	}
	if s := dirtyShare(t, (*stream).substep); s < 0.001 || s > 0.005 {
		t.Errorf("substep dirties %.4f of the payload, want about 0.003", s)
	}
	if s := dirtyShare(t, (*stream).fullstep); s < 0.7 {
		t.Errorf("fullstep dirties %.2f of the payload, want nearly all of it", s)
	}
}

func mustEncode(t *testing.T, s *core.TrainingState) []byte {
	t.Helper()
	payload, err := core.EncodePayload(s)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}
