package storage_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// countingHook counts the operations it sees, before-calls only.
func countingHook(n *atomic.Int64) storage.Hook {
	return func(op storage.Op) (int64, error) {
		if !op.After {
			n.Add(1)
		}
		return 0, nil
	}
}

// countedReplicated is a 3-way Replicated of Mems, each observed by one
// counter of the operations that reach it. W = 3, so a write returns only
// once every replica has it and nothing reaches a replica afterwards.
func countedReplicated(t *testing.T, reached *atomic.Int64) *storage.Replicated {
	t.Helper()
	members := make([]storage.Replica, 3)
	for i := range members {
		members[i] = storage.Replica{Backend: storage.Observe(storage.NewMem(), countingHook(reached))}
	}
	rb, err := storage.NewReplicated(storage.ReplicatedOptions{WriteQuorum: 3}, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rb.Close() })
	return rb
}

// TestObserveContract: for every kind of operation, a before-call that
// returns an error fails the op without issuing it (nothing reaches the
// base), and an op the hook lets through gets one after-call that reports
// its kind, its key, the bytes it moved, its error and the stamp its
// before-call returned.
func TestObserveContract(t *testing.T) {
	chunk := []byte("chunk bytes")
	addr := storage.Hash(chunk)
	chunkKey := "chunks/" + addr[:2] + "/" + addr
	const resident = "0123456789" // at key "r" before every case
	cases := []struct {
		name string
		kind storage.OpKind
		key  string
		n    int64 // bytes the op moves when let through
		do   func(o *storage.Observed) error
	}{
		{"Put", storage.OpPut, "k", 7, func(o *storage.Observed) error { return o.Put("k", []byte("payload")) }},
		{"PutClass", storage.OpPut, "k", 7, func(o *storage.Observed) error {
			return o.PutClass("k", []byte("payload"), storage.ClassDeltaChunk)
		}},
		{"Get", storage.OpGet, "r", 10, func(o *storage.Observed) error { _, err := o.Get("r"); return err }},
		{"GetRange", storage.OpGetRange, "r", 5, func(o *storage.Observed) error { _, err := o.GetRange("r", 2, 5); return err }},
		{"GetBatch", storage.OpGet, "r", 10, func(o *storage.Observed) error { _, errs := o.GetBatch([]string{"r"}); return errs[0] }},
		{"List", storage.OpList, "", 0, func(o *storage.Observed) error { _, err := o.List(""); return err }},
		{"Delete", storage.OpDelete, "r", 0, func(o *storage.Observed) error { return o.Delete("r") }},
		{"Stat", storage.OpStat, "r", 0, func(o *storage.Observed) error { _, err := o.Stat("r"); return err }},
		{"IngestKeyed", storage.OpIngest, chunkKey, int64(len(chunk)), func(o *storage.Observed) error {
			_, _, err := o.IngestKeyed(chunkKey, addr, chunk)
			return err
		}},
		{"IngestKeyedClass", storage.OpIngest, chunkKey, int64(len(chunk)), func(o *storage.Observed) error {
			_, _, err := o.IngestKeyedClass(chunkKey, addr, chunk, storage.ClassAnchorChunk)
			return err
		}},
	}
	refused := errors.New("refused")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Refused first, on a store nothing has touched yet: a
			// replicated op's stragglers may reach a replica after it
			// returns, so only an untouched store tells that nothing did.
			var reached atomic.Int64
			rb := countedReplicated(t, &reached)
			var calls atomic.Int64
			deny := storage.Observe(rb, func(op storage.Op) (int64, error) {
				calls.Add(1)
				return 0, refused
			})
			if err := tc.do(deny); !errors.Is(err, refused) {
				t.Errorf("refused op returned %v, want the hook's error", err)
			}
			if got := reached.Load(); got != 0 || calls.Load() != 1 {
				t.Errorf("refused op: %d ops reached the base, hook called %d times; want 0 and 1", got, calls.Load())
			}

			if err := rb.Put("r", []byte(resident)); err != nil {
				t.Fatal(err)
			}
			before := reached.Load()
			var seen []storage.Op
			allow := storage.Observe(rb, func(op storage.Op) (int64, error) {
				seen = append(seen, op)
				return 42, nil
			})
			if err := tc.do(allow); err != nil {
				t.Fatal(err)
			}
			if reached.Load() == before {
				t.Errorf("accepted op never reached the base")
			}
			if len(seen) != 2 || seen[0].After || !seen[1].After {
				t.Fatalf("hook calls %+v, want one before and one after", seen)
			}
			for _, op := range seen {
				if op.Kind != tc.kind || op.Key != tc.key {
					t.Errorf("hook saw kind %d key %q, want %d %q", op.Kind, op.Key, tc.kind, tc.key)
				}
			}
			if after := seen[1]; after.N != tc.n || after.Err != nil || after.Stamp != 42 {
				t.Errorf("after-call N=%d err=%v stamp=%d, want N=%d, no error, stamp 42", after.N, after.Err, after.Stamp, tc.n)
			}
			if r := seen[1]; (tc.kind == storage.OpGet || tc.kind == storage.OpGetRange) && int64(len(r.Data)) != tc.n {
				t.Errorf("after-call of a read carries %d bytes, want %d", len(r.Data), tc.n)
			}
		})
	}
}

// TestObserveStampsPairOverlappingOps: two ops on one key in flight at
// once each get back the stamp their own before-call drew.
func TestObserveStampsPairOverlappingOps(t *testing.T) {
	var clock atomic.Int64
	var mu sync.Mutex
	pairs := map[int64]int{}
	o := storage.Observe(storage.NewMem(), func(op storage.Op) (int64, error) {
		mu.Lock()
		defer mu.Unlock()
		if !op.After {
			s := clock.Add(1)
			pairs[s]++
			return s, nil
		}
		pairs[op.Stamp]++
		return 0, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				o.Put("k", []byte{byte(j)})
				o.Get("k")
			}
		}()
	}
	wg.Wait()
	for s, n := range pairs {
		if n != 2 {
			t.Fatalf("stamp %d seen %d times, want one before- and one after-call", s, n)
		}
	}
}

// TestObserveAddsNoAllocs: a hook between the caller and a Mem costs no
// allocation per Get, Put, Stat or GetRange beyond the Mem's own.
func TestObserveAddsNoAllocs(t *testing.T) {
	mem := storage.NewMem()
	var n atomic.Int64
	o := storage.Observe(mem, countingHook(&n))
	data := make([]byte, 1024)
	if err := mem.Put("k", data); err != nil {
		t.Fatal(err)
	}
	ops := map[string][2]func(){
		"Get":      {func() { mem.Get("k") }, func() { o.Get("k") }},
		"Put":      {func() { mem.Put("k", data) }, func() { o.Put("k", data) }},
		"Stat":     {func() { mem.Stat("k") }, func() { o.Stat("k") }},
		"GetRange": {func() { storage.GetRange(mem, "k", 8, 64) }, func() { o.GetRange("k", 8, 64) }},
	}
	for name, op := range ops {
		base := testing.AllocsPerRun(200, op[0])
		hooked := testing.AllocsPerRun(200, op[1])
		if hooked != base {
			t.Errorf("%s: %v allocs/op through Observe, %v on the Mem alone", name, hooked, base)
		}
	}
}
