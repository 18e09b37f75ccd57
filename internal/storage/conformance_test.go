package storage_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// backendImpls enumerates every storage.Backend implementation; the storagetest
// conformance suite runs against all of them. New backends join by adding
// a constructor here (out-of-tree backends, like the remote HTTP client,
// call storagetest.Run from their own package instead).
func backendImpls() map[string]storagetest.Maker {
	return map[string]storagetest.Maker{
		"local": func(t *testing.T) storage.Backend {
			b, err := storage.NewLocal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"mem": func(t *testing.T) storage.Backend {
			return storage.NewMem()
		},
		"tier-nfs": func(t *testing.T) storage.Backend {
			return storage.NewTier(storage.NewMem(), storage.DeviceNFS)
		},
		"prefixed-local": func(t *testing.T) storage.Backend {
			b, err := storage.NewLocal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return storage.WithPrefix(b, "ns")
		},
		// The shape of a job view of a multi-tenant store: "c/" passes
		// through to the base (ConcurrentPuts writes there, ListPrefixSorted
		// lists across both sides), everything else lives under "ns/".
		"shared-prefix-tiered": func(t *testing.T) storage.Backend {
			tb, err := storage.NewTiered(
				storage.Level{Name: "hot", Backend: storage.NewMem()},
				storage.Level{Name: "cold", Backend: storage.NewMem()},
			)
			if err != nil {
				t.Fatal(err)
			}
			return storage.WithSharedPrefix(tb, "ns", "c")
		},
		"tiered": func(t *testing.T) storage.Backend {
			tb, err := storage.NewTiered(
				storage.Level{Name: "hot", Backend: storage.NewMem()},
				storage.Level{Name: "cold", Backend: storage.NewMem()},
			)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		},
		"tiered-local": func(t *testing.T) storage.Backend {
			tb, err := storage.NewTieredDir(t.TempDir(), []string{"nvme", "object"})
			if err != nil {
				t.Fatal(err)
			}
			return tb
		},
		// cache-*: the one-shard Coalescer recovery reads through
		// (core.newSnapshotView), over the bases a restore meets.
		"cache-local": func(t *testing.T) storage.Backend {
			b, err := storage.NewLocal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return storage.NewCoalescerShards(b, 1<<20, 1)
		},
		"coalesce-mem": func(t *testing.T) storage.Backend {
			return storage.NewCoalescer(storage.NewMem(), 1<<20)
		},
		"coalesce-tiered": func(t *testing.T) storage.Backend {
			tb, err := storage.NewTiered(
				storage.Level{Name: "hot", Backend: storage.NewMem()},
				storage.Level{Name: "cold", Backend: storage.NewMem()},
			)
			if err != nil {
				t.Fatal(err)
			}
			return storage.NewCoalescer(tb, 1<<20)
		},
		// observe-*: the one op hook, over a base with no optional
		// capability and over one whose batch, ingest and classed fast
		// paths the hook must see.
		"observe-mem": func(t *testing.T) storage.Backend {
			var n atomic.Int64
			return storage.Observe(storage.NewMem(), countingHook(&n))
		},
		"observe-replicated": func(t *testing.T) storage.Backend {
			var n atomic.Int64
			rb, err := storage.NewReplicated(storage.ReplicatedOptions{},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-a"},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-b"},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-c"},
			)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rb.Close() })
			return storage.Observe(rb, countingHook(&n))
		},
		"replicated-mem": func(t *testing.T) storage.Backend {
			rb, err := storage.NewReplicated(storage.ReplicatedOptions{},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-a"},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-b"},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-c"},
			)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rb.Close() })
			return rb
		},
		"replicated-under-tiered": func(t *testing.T) storage.Backend {
			// A replicated set as the cold level of a tiered store: the
			// composition behind "the fleet tier survives a disk".
			rb, err := storage.NewReplicated(storage.ReplicatedOptions{},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-a"},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-b"},
				storage.Replica{Backend: storage.NewMem(), Domain: "zone-c"},
			)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rb.Close() })
			tb, err := storage.NewTiered(
				storage.Level{Name: "hot", Backend: storage.NewMem()},
				storage.Level{Name: "cold", Backend: rb},
			)
			if err != nil {
				t.Fatal(err)
			}
			return tb
		},
		"cache-tiered": func(t *testing.T) storage.Backend {
			tb, err := storage.NewTiered(
				storage.Level{Name: "hot", Backend: storage.NewMem()},
				storage.Level{Name: "cold", Backend: storage.NewTier(storage.NewMem(), storage.DeviceObject)},
			)
			if err != nil {
				t.Fatal(err)
			}
			return storage.NewCoalescerShards(tb, 1<<20, 1)
		},
	}
}

// TestBackendConformance runs the full exported conformance suite against
// every in-tree storage.Backend implementation.
func TestBackendConformance(t *testing.T) {
	for name, mk := range backendImpls() {
		t.Run(name, func(t *testing.T) {
			storagetest.Run(t, mk)
		})
	}
}

func TestTierAccountsModeledCost(t *testing.T) {
	tier := storage.NewTier(storage.NewMem(), storage.Device{Name: "d", Latency: time.Millisecond, Bandwidth: 1e6})
	payload := bytes.Repeat([]byte{7}, 1000) // 1 ms transfer at 1 MB/s
	if err := tier.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.Modeled != 2*time.Millisecond {
		t.Errorf("Put modeled %v, want 2ms", st.Modeled)
	}
	if st.BytesWritten != 1000 || st.Ops != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := tier.Get("k"); err != nil {
		t.Fatal(err)
	}
	st = tier.Stats()
	if st.Modeled != 4*time.Millisecond || st.BytesRead != 1000 {
		t.Errorf("after Get: %+v", st)
	}
	// Failed operations charge nothing.
	if _, err := tier.Get("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal(err)
	}
	if got := tier.Stats(); got.Modeled != st.Modeled {
		t.Errorf("failed op charged cost")
	}
}

func TestWithPrefixIsolation(t *testing.T) {
	base := storage.NewMem()
	ns := storage.WithPrefix(base, "ns")
	if err := ns.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Get("ns/k"); err != nil {
		t.Errorf("prefixed key not visible at base: %v", err)
	}
	if err := base.Put("other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	keys, err := ns.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k" {
		t.Errorf("prefix view leaked foreign keys: %v", keys)
	}
}
