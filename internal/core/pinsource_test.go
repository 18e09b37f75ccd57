package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// mapPinSource is a test PinSource: a mutable pinned-address set.
type mapPinSource struct {
	mu     sync.Mutex
	addrs  map[string]bool
	lapsed []string
}

func (p *mapPinSource) Pinned(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addrs[addr]
}

// Lapsed reports, once, every address released with release.
func (p *mapPinSource) Lapsed() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.lapsed
	p.lapsed = nil
	return out
}

func (p *mapPinSource) release(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.addrs, addr)
	p.lapsed = append(p.lapsed, addr)
}

// TestPinSourceShieldsChunksFromCollection pins the external-pin contract
// the network server's lease table relies on: an unreferenced chunk whose
// address a registered PinSource reports pinned survives CollectOrphans,
// and is reaped the moment the source releases it (a lease expiring).
func TestPinSourceShieldsChunksFromCollection(t *testing.T) {
	svc, err := NewService(ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	addr, err := svc.ChunkStore().Put([]byte("uploaded but not yet committed"))
	if err != nil {
		t.Fatal(err)
	}
	src := &mapPinSource{addrs: map[string]bool{addr: true}}
	svc.RegisterPinSource(src)

	if removed, _, err := svc.CollectOrphans(); err != nil || removed != 0 {
		t.Fatalf("collection ignored the pin source: removed=%d err=%v", removed, err)
	}
	if !svc.ChunkStore().Has(addr) {
		t.Fatal("externally pinned chunk was swept")
	}

	src.release(addr)
	if removed, _, err := svc.CollectOrphans(); err != nil || removed != 1 {
		t.Fatalf("released chunk not reaped: removed=%d err=%v", removed, err)
	}
}

// TestStandaloneJobViewManagerKeepsForeignTenants pins the scan-root rule
// of newSharedChunks: a standalone Manager constructed over one job's
// view of a multi-tenant store must not treat other jobs' chunks as
// orphans — their manifests live outside the view, but their chunks share
// the namespace the sweep walks.
func TestStandaloneJobViewManagerKeepsForeignTenants(t *testing.T) {
	mem := storage.NewMem()

	// Tenant "other" checkpoints through a service and closes cleanly.
	svc, err := NewService(ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	other, err := svc.OpenJob("other", chunkedOpts(Options{Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Save(serviceJobStates(1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	chunkKeys, err := mem.List(ChunkPrefix + "/")
	if err != nil || len(chunkKeys) == 0 {
		t.Fatalf("no chunks from tenant other: %v %v", chunkKeys, err)
	}

	// A standalone Manager on job "mine"'s view of the same store.
	view, err := JobBackend(mem, "mine")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(chunkedOpts(Options{Backend: view, Strategy: StrategyFull}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Save(serviceJobStates(2, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if removed, _, err := m.CollectOrphans(); err != nil || removed != 0 {
		t.Fatalf("standalone job-view manager reaped %d foreign chunk(s), err=%v", removed, err)
	}
	for _, k := range chunkKeys {
		if _, err := mem.Get(k); err != nil {
			t.Errorf("tenant other's chunk %s lost: %v", k, err)
		}
	}
	// Its own chunks are of course also alive.
	restored, _, err := LoadLatestBackendOptions(view, nil, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Meta.CircuitFP != "svc" {
		t.Fatalf("restored foreign state: %+v", restored.Meta)
	}
}

// TestPrefixedManagerRestoresAfterRetentionSweep pins the other half of
// the scan-root rule: a plain WithPrefix mount shares no namespace with its
// base, so a Manager over it counts references through the mount. Scanning
// the base instead finds no manifest at its root, and retention's sweep
// reaps the chunks of the snapshot it has just kept.
func TestPrefixedManagerRestoresAfterRetentionSweep(t *testing.T) {
	ns := storage.WithPrefix(storage.NewMem(), "ns")
	m, err := NewManager(chunkedOpts(Options{Backend: ns, Strategy: StrategyFull, Retain: 1}))
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(3)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestBackendOptions(ns, nil, RestoreOptions{})
	if err != nil || !got.Equal(states[2]) {
		t.Fatalf("restore after retention's orphan sweep: %v", err)
	}
}

// TestJobViewForwardsIngestKeyed checks the forwarding chain a remote
// store depends on: a "chunks/" mount over a job view over a backend
// implementing storage.AddressedIngester hands the whole ingest to that
// backend, with the fully-qualified key.
func TestJobViewForwardsIngestKeyed(t *testing.T) {
	rec := &recordingIngester{Mem: storage.NewMem()}
	view, err := JobBackend(rec, "j1")
	if err != nil {
		t.Fatal(err)
	}
	cs := storage.NewChunkStore(storage.WithPrefix(view, ChunkPrefix))
	data := []byte("payload")
	addr := storage.Hash(data)
	written, err := cs.Ingest(addr, data, storage.ClassDefault)
	if err != nil {
		t.Fatal(err)
	}
	if written != len(data) {
		t.Fatalf("delegated ingest reported %d written, want %d", written, len(data))
	}
	wantKey := ChunkPrefix + "/" + addr[:2] + "/" + addr
	if len(rec.keys) != 1 || rec.keys[0] != wantKey {
		t.Fatalf("ingest keys = %v, want [%s]", rec.keys, wantKey)
	}
	if !strings.HasPrefix(rec.keys[0], ChunkPrefix+"/") {
		t.Fatalf("chunk key escaped the chunk namespace: %s", rec.keys[0])
	}
	// Second ingest of identical content dedups inside the ingester.
	if written, err = cs.Ingest(addr, data, storage.ClassDefault); err != nil || written != 0 {
		t.Fatalf("dedup ingest: written=%d err=%v", written, err)
	}
}

// recordingIngester is a Mem backend that owns the addressed-ingest
// decision, recording the keys it was handed.
type recordingIngester struct {
	*storage.Mem
	mu   sync.Mutex
	keys []string
}

func (r *recordingIngester) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return r.IngestKeyedClass(key, addr, data, storage.ClassDefault)
}

func (r *recordingIngester) IngestKeyedClass(key, addr string, data []byte, _ storage.WriteClass) (int, bool, error) {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
	if _, err := r.Stat(key); err == nil {
		return 0, true, nil
	}
	if err := r.Put(key, data); err != nil {
		return 0, true, err
	}
	return len(data), true, nil
}
