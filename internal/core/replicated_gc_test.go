package core

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestServiceGCOverReplicatedQuorumManifest is the split-brain GC
// invariant: a manifest resident on only a subset of replicas (a lagging
// replica missed it, or repair has not caught up) must still protect
// every chunk it references from the orphan sweep. The replicated
// store's List is the union of reachable replicas precisely so that the
// keep-set scanner over-lists rather than under-lists.
func TestServiceGCOverReplicatedQuorumManifest(t *testing.T) {
	mems := [3]*storage.Mem{storage.NewMem(), storage.NewMem(), storage.NewMem()}
	rb, err := storage.NewReplicated(storage.ReplicatedOptions{},
		storage.Replica{Backend: mems[0], Domain: "zone-a"},
		storage.Replica{Backend: mems[1], Domain: "zone-b"},
		storage.Replica{Backend: mems[2], Domain: "zone-c"},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	svc, err := NewService(ServiceOptions{Backend: rb})
	if err != nil {
		t.Fatal(err)
	}
	m, err := svc.OpenJob("rep-job", chunkedOpts(Options{Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	states := serviceJobStates(0, 3)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	want := states[len(states)-1]
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rb.Close() // barrier: all straggler replica writes land

	manifests, err := rb.List(JobPrefix + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 3 {
		t.Fatalf("want 3 manifests, got %v", manifests)
	}
	chunkKeys, err := rb.List(ChunkPrefix + "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunkKeys) == 0 {
		t.Fatal("no chunks written")
	}

	// Split-brain: the newest manifest vanishes from one replica (raw
	// delete beneath the quorum layer, as a crashed-and-restored replica
	// would look). It is now visible on only a quorum.
	newest := manifests[len(manifests)-1]
	if err := mems[0].Delete(newest); err != nil {
		t.Fatal(err)
	}

	removed, _, err := svc.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("sweep reaped %d chunks referenced by a quorum-visible manifest", removed)
	}

	// The job still restores bitwise through its view.
	view, err := svc.JobView("rep-job")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("restore over split-brain store is not bitwise")
	}

	// Anti-entropy converges the manifest back onto every replica (the
	// keep-set scan's quorum reads may already have read-repaired it;
	// Repair guarantees it either way).
	st, err := rb.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("repair: %+v", st)
	}
	for i, mem := range mems {
		if _, err := mem.Get(newest); err != nil {
			t.Errorf("replica %d missing %s after repair: %v", i, newest, err)
		}
	}

	// Sanity: once every manifest is genuinely deleted (quorum deletes
	// through the store), the sweep drains the chunks.
	for _, k := range manifests {
		if err := rb.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err = svc.CollectOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("sweep removed nothing after all manifests were deleted")
	}
	left, err := rb.List(ChunkPrefix + "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range left {
		if strings.HasPrefix(k, ChunkPrefix+"/") {
			t.Fatalf("chunk %s survived a drain sweep", k)
		}
	}
}
