// Package consistency records storage operation histories and verifies
// bounds on their staleness. The verifier is grounded in the
// k-atomicity-verification problem: a replicated register is k-atomic
// when every read returns one of the k most recent completed writes
// under some serialization that respects real-time order. The harness
// wraps a replicated backend in a Recorder (a storage.Observe hook that
// logs Put, Get and Delete; every declared capability handle is the
// recorder's own), runs concurrent writers and readers against one
// manifest key while replicas crash and recover, and then asks the verifier for the smallest k the recorded history admits
// — an online consistency audit instead of a hopeful claim.
package consistency

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// OpKind labels one recorded invocation.
type OpKind int

const (
	OpPut OpKind = iota
	OpGet
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	}
	return "?"
}

// Op is one recorded invocation with logical start/end timestamps drawn
// from a shared monotonic counter. The timestamps are invocation/response
// events, not wall clocks: End(a) < Start(b) means a completed before b
// was issued — real-time precedence — while overlapping intervals mean
// the two ops were concurrent.
type Op struct {
	Kind OpKind
	Key  string
	// Value identifies the payload written or returned: the content hash
	// for puts and successful gets, "" for a NotFound get (the initial
	// state ⊥) and for deletes.
	Value string
	Start int64
	End   int64
	// Err marks a failed invocation. A failed put may or may not have
	// taken effect on some replicas, so the verifier treats it as forever
	// in flight rather than completed.
	Err bool
	// NotFound marks a get that returned ErrNotFound.
	NotFound bool
}

// History is an ordered log of recorded operations (append order; the
// timestamps carry the real ordering information).
type History []Op

// Recorder wraps a Backend and logs Put/Get/Delete invocations on the
// audited keys (all keys when none are given), from its storage.Hook.
// Everything else — List, Stat, ranged reads, ingests — passes through
// unrecorded; the audit targets the mutable manifest plane, which reads
// whole objects.
type Recorder struct {
	*storage.Observed
	clock atomic.Int64
	keys  map[string]bool

	mu  sync.Mutex
	ops []Op
}

// NewRecorder wraps base, auditing only the given keys (all when empty).
func NewRecorder(base storage.Backend, keys ...string) *Recorder {
	r := &Recorder{}
	r.Observed = storage.Observe(base, r.observe)
	if len(keys) > 0 {
		r.keys = make(map[string]bool, len(keys))
		for _, k := range keys {
			r.keys[k] = true
		}
	}
	return r
}

// History returns a copy of the recorded log.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(History(nil), r.ops...)
}

// Caps implements CapsReporter: every handle is the recorder, so a
// tagged manifest commit lands in the history like a plain one.
func (r *Recorder) Caps() storage.CapSet { return storage.ForwardCaps(r, r.Backend) }

// recorded maps the storage operations the audit logs to their kinds.
var recorded = map[storage.OpKind]OpKind{storage.OpPut: OpPut, storage.OpGet: OpGet, storage.OpDelete: OpDelete}

// observe is the Recorder's Hook. The before-call of an audited op draws
// its invocation stamp, which comes back in the after-call as the op's
// Start: a response is paired with its own invocation, however many ops on
// the key overlap.
func (r *Recorder) observe(op storage.Op) (int64, error) {
	kind, ok := recorded[op.Kind]
	if !ok || r.keys != nil && !r.keys[op.Key] {
		return 0, nil
	}
	if !op.After {
		return r.clock.Add(1), nil
	}
	rec := Op{Kind: kind, Key: op.Key, Start: op.Stamp, End: r.clock.Add(1)}
	switch {
	case kind == OpPut:
		rec.Value, rec.Err = storage.Hash(op.Data), op.Err != nil
	case kind == OpDelete:
		rec.Err = op.Err != nil && !errors.Is(op.Err, storage.ErrNotFound)
	case op.Err == nil:
		rec.Value = storage.Hash(op.Data)
	case errors.Is(op.Err, storage.ErrNotFound):
		rec.NotFound = true
	default:
		rec.Err = true
	}
	r.mu.Lock()
	r.ops = append(r.ops, rec)
	r.mu.Unlock()
	return 0, nil
}
