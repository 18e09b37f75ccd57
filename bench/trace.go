package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names, as they appear in span files and metric prefixes. Leaf
// stores under a server stack carry a site suffix ("storage.local.nvme",
// "storage.local.replica0") so the placement split can be read back.
const (
	layerCoreSave    = "core.save"
	layerCoreRestore = "core.restore"
	layerRemote      = "remote"
	layerRoundTrip   = "remote.roundtrip"
	layerServer      = "server"
	layerAPI         = "api"
	layerReplicated  = "storage.replicated"
	layerLocal       = "storage.local"
	siteNVMe         = layerLocal + ".nvme"
	siteReplica      = layerLocal + ".replica"
)

// opHeader carries the driver-minted op id from the bench RoundTripper
// to the bench handler middleware. Nothing in the program reads it.
const opHeader = "Qckpt-Bench-Op"

// Op ids are minted per save/restore; the low bit is the kind, so a span
// that carries an op id says which phase it belongs to even when saves
// and restores overlap (mixed_remote). Id 0 means "unknown": there is no
// context in storage or api calls, so server-side spans below the HTTP
// handler cannot be tied to a request from outside.
const (
	kindSave    = 0
	kindRestore = 1
)

// span is one timed call across a layer boundary. Times are ns since the
// tracer's epoch.
type span struct {
	id      uint64
	opID    uint64
	layer   uint8 // index into tracer.names
	op      uint8 // index into tracer.names
	err     bool
	startNS int64
	endNS   int64
	bytes   int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: the workloads build no wrappers at all in that
// case, so nothing here is on the end-to-end path.
type tracer struct {
	epoch time.Time
	opSeq atomic.Uint64

	mu    sync.Mutex
	names []string // interned layer and op names
	index map[string]uint8
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: make(map[string]uint8), spans: make([]span, 0, 1<<18)}
}

// intern maps a layer or op name to its small index. Wrappers intern
// their names once at construction, not per call.
func (t *tracer) intern(name string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[name]; ok {
		return i
	}
	i := uint8(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = i
	return i
}

// mintOp returns a fresh op id of the given kind.
func (t *tracer) mintOp(kind uint64) uint64 {
	return t.opSeq.Add(1)<<1 | kind
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record appends a span that started at startNS and ends now.
func (t *tracer) record(layer, op uint8, opID uint64, startNS, bytes int64, failed bool) {
	t.append(span{opID: opID, layer: layer, op: op, err: failed, startNS: startNS, endNS: t.now(), bytes: bytes})
}

// recordRoot appends the span of one whole save or restore, which the
// driver timed with its own clock.
func (t *tracer) recordRoot(layer, op string, opID uint64, t0 time.Time, d time.Duration, bytes int64, failed bool) {
	start := int64(t0.Sub(t.epoch))
	t.append(span{
		opID: opID, layer: t.intern(layer), op: t.intern(op),
		err: failed, startNS: start, endNS: start + int64(d), bytes: bytes,
	})
}

func (t *tracer) append(s span) {
	t.mu.Lock()
	s.id = uint64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops recorded spans (between repeats) but keeps interned names
// and the buffer's capacity.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// writeJSONL writes one JSON object per span:
// {"id","op_id","layer","op","start_ns","end_ns","bytes","err"}.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	var line []byte
	for _, s := range t.spans {
		line = line[:0]
		line = append(line, `{"id":`...)
		line = strconv.AppendUint(line, s.id, 10)
		line = append(line, `,"op_id":`...)
		line = strconv.AppendUint(line, s.opID, 10)
		line = append(line, `,"layer":"`...)
		line = append(line, t.names[s.layer]...)
		line = append(line, `","op":"`...)
		line = append(line, t.names[s.op]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.startNS, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.endNS, 10)
		line = append(line, `,"bytes":`...)
		line = strconv.AppendInt(line, s.bytes, 10)
		line = append(line, `,"err":`...)
		line = strconv.AppendBool(line, s.err)
		line = append(line, "}\n"...)
		w.Write(line) // bufio keeps the first error for Flush
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// window is a phase's time range on the tracer clock.
type window struct{ startNS, endNS int64 }

func (w window) contains(ns int64) bool { return ns >= w.startNS && ns < w.endNS }

// interval is a half-open time range; sets of them are kept merged.
type interval struct{ lo, hi int64 }

// merge sorts and coalesces intervals in place.
func merge(iv []interval) []interval {
	if len(iv) == 0 {
		return iv
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			last.hi = max(last.hi, x.hi)
		} else {
			out = append(out, x)
		}
	}
	return out
}

// measure is the total length of a merged interval set.
func measure(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// minus is the length of a \ b for merged sets: the time some call was
// inside layer a while no call was inside the layer below it.
func minus(a, b []interval) int64 {
	var n int64
	j := 0
	for _, x := range a {
		lo := x.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < x.hi; k++ {
			if b[k].lo > lo {
				n += b[k].lo - lo
			}
			lo = max(lo, b[k].hi)
		}
		if lo < x.hi {
			n += x.hi - lo
		}
	}
	return n
}

// layerAgg is what one layer group did during one phase.
type layerAgg struct {
	spans  int64
	errs   int64
	sumNS  int64 // Σ span durations: time callers waited on this boundary
	bytes  int64
	cover  []interval       // merged union of the span intervals
	ops    map[string]int64 // span count per op
	opByte map[string]int64 // bytes per op
	opNS   map[string]int64 // Σ duration per op
}

func (a *layerAgg) add(s span, op string) {
	if a.ops == nil {
		a.ops, a.opByte, a.opNS = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	a.spans++
	if s.err {
		a.errs++
	}
	d := s.endNS - s.startNS
	a.sumNS += d
	a.bytes += s.bytes
	a.cover = append(a.cover, interval{s.startNS, s.endNS})
	a.ops[op]++
	a.opByte[op] += s.bytes
	a.opNS[op] += d
}

// phaseAgg groups a phase's spans by layer name (sites kept apart).
type phaseAgg map[string]*layerAgg

func (p phaseAgg) get(layer string) *layerAgg {
	if a := p[layer]; a != nil {
		return a
	}
	return &layerAgg{}
}

// group unions the coverage and sums the counters of every layer whose
// name has the prefix ("storage.local" takes in all of its sites).
func (p phaseAgg) group(prefix string) *layerAgg {
	out := &layerAgg{ops: map[string]int64{}, opByte: map[string]int64{}, opNS: map[string]int64{}}
	for name, a := range p {
		if name != prefix && !strings.HasPrefix(name, prefix+".") {
			continue
		}
		out.spans += a.spans
		out.errs += a.errs
		out.sumNS += a.sumNS
		out.bytes += a.bytes
		out.cover = append(out.cover, a.cover...)
		for k, v := range a.ops {
			out.ops[k] += v
			out.opByte[k] += a.opByte[k]
			out.opNS[k] += a.opNS[k]
		}
	}
	out.cover = merge(out.cover)
	return out
}

// aggregate splits the recorded spans into the save and the restore
// phase. A span with an op id goes where the id's kind bit says; one
// without (server-side api and storage spans) goes by time, and when
// the two windows overlap (mixed_remote) it counts in both.
func (t *tracer) aggregate(save, restore window) (saveAgg, restoreAgg phaseAgg) {
	saveAgg, restoreAgg = phaseAgg{}, phaseAgg{}
	t.mu.Lock()
	defer t.mu.Unlock()
	put := func(p phaseAgg, s span) {
		name := t.names[s.layer]
		a := p[name]
		if a == nil {
			a = &layerAgg{}
			p[name] = a
		}
		a.add(s, t.names[s.op])
	}
	for _, s := range t.spans {
		if s.opID != 0 {
			if s.opID&1 == kindSave {
				if save.contains(s.startNS) {
					put(saveAgg, s)
				}
			} else if restore.contains(s.startNS) {
				put(restoreAgg, s)
			}
			continue
		}
		if save.contains(s.startNS) {
			put(saveAgg, s)
		}
		if restore.contains(s.startNS) {
			put(restoreAgg, s)
		}
	}
	for _, p := range []phaseAgg{saveAgg, restoreAgg} {
		for _, a := range p {
			a.cover = merge(a.cover)
		}
	}
	return saveAgg, restoreAgg
}
