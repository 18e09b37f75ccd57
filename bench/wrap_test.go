package main

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

func replicatedOverLocal(t *testing.T) *storage.Replicated {
	t.Helper()
	members := make([]storage.Replica, replicas)
	for i := range members {
		l, err := storage.NewLocal(fmt.Sprintf("%s/replica-%d", t.TempDir(), i))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = storage.Replica{Backend: l}
	}
	r, err := storage.NewReplicated(storage.ReplicatedOptions{WriteQuorum: 2}, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// The wrapper must be a Backend in its own right: everything the engine
// relies on from Local and Replicated has to survive being wrapped.
func TestTracedBackendPassesConformance(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		storagetest.Run(t, func(t *testing.T) storage.Backend {
			l, err := storage.NewLocal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return traceBackend(l, newTracer(), layerLocal, new(atomic.Uint64))
		})
	})
	t.Run("replicated", func(t *testing.T) {
		storagetest.Run(t, func(t *testing.T) storage.Backend {
			return traceBackend(replicatedOverLocal(t), newTracer(), layerReplicated, nil)
		})
	})
}

// A wrapper that offered a fast path its backend lacks, or hid one it
// has, would change the path the program takes. Field for field, a
// handle is set on the wrapper exactly when it is set on the backend,
// and every set handle is the wrapper itself.
func TestTracedBackendCapsMatchTheWrappedBackend(t *testing.T) {
	local, err := storage.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := storage.NewTiered(storage.Level{Name: "hot", Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]storage.Backend{
		"local": local, "mem": storage.NewMem(), "replicated": replicatedOverLocal(t), "tiered": tiered,
	} {
		w := traceBackend(inner, newTracer(), name, nil)
		want, got := reflect.ValueOf(storage.Caps(inner)), reflect.ValueOf(storage.Caps(w))
		for i := 0; i < want.NumField(); i++ {
			field := want.Type().Field(i).Name
			if want.Field(i).Kind() != reflect.Interface {
				if !reflect.DeepEqual(want.Field(i).Interface(), got.Field(i).Interface()) {
					t.Errorf("%s: Caps().%s = %v, wrapped backend has %v", name, field, got.Field(i), want.Field(i))
				}
				continue
			}
			if want.Field(i).IsNil() != got.Field(i).IsNil() {
				t.Errorf("%s: Caps().%s set = %v, wrapped backend has it set = %v",
					name, field, !got.Field(i).IsNil(), !want.Field(i).IsNil())
			}
			if !got.Field(i).IsNil() && got.Field(i).Elem().Interface() != any(w) {
				t.Errorf("%s: Caps().%s bypasses the wrapper", name, field)
			}
		}
		if w.Capabilities() != inner.Capabilities() || w.Name() != inner.Name() {
			t.Errorf("%s: Name or Capabilities not forwarded", name)
		}
	}
}

func TestTracedBackendRecordsOpIDBytesAndMisses(t *testing.T) {
	tr := newTracer()
	var op atomic.Uint64
	w := traceBackend(storage.NewMem(), tr, layerLocal, &op)
	op.Store(6)
	if err := w.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Stat("absent"); err == nil {
		t.Fatal("Stat of an absent key succeeded")
	}
	sa, _ := tr.aggregate(window{0, 1 << 62}, window{})
	a := sa.get(layerLocal)
	if a.spans != 2 || a.opByte["Put"] != 5 || a.errs != 0 {
		t.Errorf("got %d spans, %d put bytes, %d errors; want 2, 5, 0 (a miss is not a failure)", a.spans, a.opByte["Put"], a.errs)
	}
	if tr.spans[0].opID != 6 {
		t.Errorf("span carries op id %d, want 6", tr.spans[0].opID)
	}
}
