package main

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// codecCal is the core.codec layer measured from outside Save: the
// public codec functions called on two consecutive states of the
// workload's own stream. Zero when a call failed (the save path would
// have failed on the same state first).
type codecCal struct {
	EncodeUs      float64
	DecodeUs      float64
	EncodeAllocs  float64
	DeltaEncodeUs float64
	DeltaApplyUs  float64
}

const codecIters = 7

func medianUs(n int, fn func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(samples)
}

// calibrateCodec leaves g untouched: the next state is stepped on a
// copy.
func calibrateCodec(g *stream, step func(*stream)) codecCal {
	next := *g
	next.state = g.state.Clone()
	step(&next)

	var c codecCal
	cur, err := core.EncodePayload(g.state)
	if err != nil {
		return c
	}
	nxt, err := core.EncodePayload(next.state)
	if err != nil {
		return c
	}
	buf := make([]byte, 0, len(nxt)+1024)
	c.EncodeUs = medianUs(codecIters, func() { buf, _ = core.AppendPayload(buf[:0], next.state) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < codecIters; i++ {
		buf, _ = core.AppendPayload(buf[:0], next.state)
	}
	runtime.ReadMemStats(&after)
	c.EncodeAllocs = float64(after.Mallocs-before.Mallocs) / codecIters
	c.DecodeUs = medianUs(codecIters, func() { core.DecodePayload(nxt) })
	dbuf := make([]byte, 0, len(nxt)+16)
	c.DeltaEncodeUs = medianUs(codecIters, func() { dbuf = core.AppendDelta(dbuf[:0], cur, nxt) })
	c.DeltaApplyUs = medianUs(codecIters, func() { core.ApplyDelta(cur, dbuf) })
	return c
}
