// Package consistency records storage operation histories and verifies
// bounds on their staleness. The verifier is grounded in the
// k-atomicity-verification problem: a replicated register is k-atomic
// when every read returns one of the k most recent completed writes
// under some serialization that respects real-time order. The harness
// wraps a replicated backend in a Recorder (a storage.Forward wrapper: it
// intercepts Put, Get and Delete and passes the rest on, every declared
// capability handle its own), runs concurrent writers and
// readers against one manifest key while replicas crash and recover, and
// then asks the verifier for the smallest k the recorded history admits
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
// audited keys (all keys when none are given). Everything else — List,
// Stat, ranged and batch reads, ingests — passes through storage.Forward
// unrecorded; the audit targets the mutable manifest plane, which reads
// whole objects.
type Recorder struct {
	storage.Forward
	clock atomic.Int64
	keys  map[string]bool

	mu  sync.Mutex
	ops []Op
}

// NewRecorder wraps base, auditing only the given keys (all when empty).
func NewRecorder(base storage.Backend, keys ...string) *Recorder {
	r := &Recorder{Forward: storage.Forward{Backend: base}}
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

func (r *Recorder) audited(key string) bool {
	return r.keys == nil || r.keys[key]
}

func (r *Recorder) record(op Op) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Name implements Backend.
func (r *Recorder) Name() string { return "recorded+" + r.Backend.Name() }

// Caps implements CapsReporter: every handle is the recorder, so a
// tagged manifest commit lands in the history like a plain one.
func (r *Recorder) Caps() storage.CapSet { return storage.ForwardCaps(r, r.Backend) }

// Put implements Backend.
func (r *Recorder) Put(key string, data []byte) error {
	return r.PutClass(key, data, storage.ClassDefault)
}

// PutClass implements ClassWriter.
func (r *Recorder) PutClass(key string, data []byte, class storage.WriteClass) error {
	if !r.audited(key) {
		return storage.PutClass(r.Backend, key, data, class)
	}
	op := Op{Kind: OpPut, Key: key, Value: storage.Hash(data), Start: r.clock.Add(1)}
	err := storage.PutClass(r.Backend, key, data, class)
	op.End = r.clock.Add(1)
	op.Err = err != nil
	r.record(op)
	return err
}

// Get implements Backend.
func (r *Recorder) Get(key string) ([]byte, error) {
	if !r.audited(key) {
		return r.Backend.Get(key)
	}
	op := Op{Kind: OpGet, Key: key, Start: r.clock.Add(1)}
	data, err := r.Backend.Get(key)
	op.End = r.clock.Add(1)
	switch {
	case err == nil:
		op.Value = storage.Hash(data)
	case errors.Is(err, storage.ErrNotFound):
		op.NotFound = true
	default:
		op.Err = true
	}
	r.record(op)
	return data, err
}

// Delete implements Backend.
func (r *Recorder) Delete(key string) error {
	if !r.audited(key) {
		return r.Backend.Delete(key)
	}
	op := Op{Kind: OpDelete, Key: key, Start: r.clock.Add(1)}
	err := r.Backend.Delete(key)
	op.End = r.clock.Add(1)
	op.Err = err != nil && !errors.Is(err, storage.ErrNotFound)
	r.record(op)
	return err
}
