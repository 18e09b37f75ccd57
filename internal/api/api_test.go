package api

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

func newLocal(t *testing.T) (*Local, *core.Service, *storage.Mem) {
	t.Helper()
	mem := storage.NewMem()
	svc, err := core.NewService(core.ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return NewLocalOptions(svc, NewLeases(time.Minute), LocalOptions{}), svc, mem
}

func chunkKey(addr string) string {
	return core.ChunkPrefix + "/" + addr[:2] + "/" + addr
}

// TestIngestHasDedup drives the address-first handshake end to end: a
// miss, an upload, then hits from both the has round and a re-upload.
func TestIngestHasDedup(t *testing.T) {
	l, svc, _ := newLocal(t)
	data := []byte("the chunk payload")
	addr := storage.Hash(data)
	key := chunkKey(addr)

	have, err := l.HasAddresses([]string{key})
	if err != nil || have[0] {
		t.Fatalf("fresh store has chunk: %v %v", have, err)
	}
	written, err := l.IngestChunk(key, data)
	if err != nil || written != len(data) {
		t.Fatalf("first ingest: written=%d err=%v", written, err)
	}
	written, err = l.IngestChunk(key, data)
	if err != nil || written != 0 {
		t.Fatalf("re-ingest not deduped: written=%d err=%v", written, err)
	}
	have, err = l.HasAddresses([]string{key})
	if err != nil || !have[0] {
		t.Fatalf("has after ingest: %v %v", have, err)
	}
	if !svc.ChunkStore().Has(addr) {
		t.Fatal("chunk not visible in the service store")
	}
	st := l.Stats()
	if st.ChunksIngested != 2 || st.ChunkDedupHits != 1 || st.ChunkBytesWritten != int64(len(data)) {
		t.Errorf("stats = %+v", st)
	}
	if st.HasQueries != 2 || st.HasHits != 1 {
		t.Errorf("has stats = %+v", st)
	}
}

// TestIngestRejectsCorruptUpload: a payload that does not hash to its
// key's address — truncated or corrupted in transit — is refused and
// nothing is stored.
func TestIngestRejectsCorruptUpload(t *testing.T) {
	l, svc, _ := newLocal(t)
	data := []byte("the chunk payload")
	addr := storage.Hash(data)
	if _, err := l.IngestChunk(chunkKey(addr), data[:len(data)-3]); err == nil {
		t.Fatal("truncated upload accepted")
	}
	if svc.ChunkStore().Has(addr) {
		t.Fatal("corrupt upload reached the store")
	}
	if _, err := l.IngestChunk("not/a/chunk", data); err == nil {
		t.Fatal("non-chunk key accepted by chunk plane")
	}
}

// TestLeasesProtectUncommittedUploads is the orphan-reap contract: an
// uploaded chunk with no manifest survives collection while its lease is
// live and is reaped after the lease expires — the killed-mid-upload
// client story.
func TestLeasesProtectUncommittedUploads(t *testing.T) {
	l, _, _ := newLocal(t)
	data := []byte("orphan-to-be")
	addr := storage.Hash(data)
	if _, err := l.IngestChunk(chunkKey(addr), data); err != nil {
		t.Fatal(err)
	}
	if removed, _, err := l.CollectOrphans(); err != nil || removed != 0 {
		t.Fatalf("leased chunk collected: removed=%d err=%v", removed, err)
	}
	// The client dies; the lease lapses.
	l.Leases().SetClock(func() time.Time { return time.Now().Add(2 * time.Minute) })
	removed, _, err := l.CollectOrphans()
	if err != nil || removed != 1 {
		t.Fatalf("expired orphan not reaped: removed=%d err=%v", removed, err)
	}
	if l.Stats().ActiveLeases != 0 {
		t.Errorf("leases survived expiry: %d", l.Stats().ActiveLeases)
	}
}

// TestCommittedManifestOutlivesLease: once a manifest references the
// chunk, lease expiry no longer matters.
func TestCommittedManifestOutlivesLease(t *testing.T) {
	l, svc, _ := newLocal(t)

	// Save through a real manager so the manifest format is authentic.
	m, err := svc.OpenJob("j", core.Options{Strategy: core.StrategyFull, ChunkBytes: core.MinChunkBytes, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewTrainingState()
	st.Params = make([]float64, 2048)
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "x", ProblemFP: "x", OptimizerName: "adam"}
	if _, err := m.Save(st); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	l.Leases().SetClock(func() time.Time { return time.Now().Add(time.Hour) })
	if removed, _, err := l.CollectOrphans(); err != nil || removed != 0 {
		t.Fatalf("referenced chunks collected after lease expiry: removed=%d err=%v", removed, err)
	}
}

// TestManifestDeleteIsARetentionPass drives a remote tenant's whole
// history through the service: upload, commit, commit of a second manifest
// sharing a chunk, then retention deleting them one at a time. Each delete
// sweeps exactly the chunks only that manifest named — no /v1/gc needed —
// an upload whose lease lapsed uncommitted goes with the next delete, and
// at every step an explicit collection finds nothing left to remove.
func TestManifestDeleteIsARetentionPass(t *testing.T) {
	l, svc, _ := newLocal(t)
	now := time.Now()
	l.Leases().SetClock(func() time.Time { return now })
	m, err := svc.OpenJob("src", core.Options{Strategy: core.StrategyFull, ChunkBytes: core.MinChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	// Two authentic manifests that share most of their chunks.
	st := core.NewTrainingState()
	st.Params = make([]float64, 4096)
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: "x", ProblemFP: "x", OptimizerName: "adam"}
	var manifests [2][]byte
	for i := range manifests {
		st.Step, st.Params[0] = uint64(i), float64(i+1)
		res, err := m.Save(st)
		if err != nil {
			t.Fatal(err)
		}
		if manifests[i], err = l.GetObject("jobs/src/" + res.Path); err != nil {
			t.Fatal(err)
		}
	}
	settled := func(step string) {
		t.Helper()
		if removed, _, err := l.CollectOrphans(); err != nil || removed != 0 {
			t.Fatalf("%s: an explicit collection removed %d (err %v), want nothing left to remove", step, removed, err)
		}
	}
	keys := []string{"jobs/r/ckpt-000000000000-full.qckpt", "jobs/r/ckpt-000000000001-full.qckpt"}
	for i, key := range keys {
		if err := l.CommitManifest(key, manifests[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The source job retires its own history: every chunk lives on through r.
	for _, key := range []string{"ckpt-000000000000-full.qckpt", "ckpt-000000000001-full.qckpt"} {
		if err := l.DeleteObject("jobs/src/" + key); err != nil {
			t.Fatal(err)
		}
	}
	settled("source retired")
	chunks := func() int {
		addrs, err := svc.ChunkStore().List()
		if err != nil {
			t.Fatal(err)
		}
		return len(addrs)
	}
	all := chunks()
	view, _ := svc.JobView("r")
	if got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{}); err != nil || !got.Equal(st) {
		t.Fatalf("remote tenant's newest snapshot does not restore: %v", err)
	}
	// An upload that never commits, its lease left to lapse.
	orphan := []byte("uploaded by a client that then died")
	if _, err := l.IngestChunk(chunkKey(storage.Hash(orphan)), orphan); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteObject(keys[0]); err != nil {
		t.Fatal(err)
	}
	if got := chunks(); got >= all+1 || got == 1 {
		t.Fatalf("deleting the older manifest left %d of %d chunks (+1 leased upload): want only its own chunks gone", got, all)
	}
	if !svc.ChunkStore().Has(storage.Hash(orphan)) {
		t.Fatal("a retention pass swept a leased upload")
	}
	if got, _, err := core.LoadLatestBackendOptions(view, nil, core.RestoreOptions{}); err != nil || !got.Equal(st) {
		t.Fatalf("the surviving snapshot lost a chunk it shares with the deleted one: %v", err)
	}
	settled("older manifest deleted")
	now = now.Add(2 * time.Minute) // the lease lapses
	if err := l.DeleteObject(keys[1]); err != nil {
		t.Fatal(err)
	}
	if got := chunks(); got != 0 {
		t.Errorf("%d chunks outlive every manifest and lease", got)
	}
	settled("everything deleted")
	if err := l.DeleteObject(keys[1]); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("deleting a deleted manifest: %v, want ErrNotFound", err)
	}
}

// TestForeignNamespaceIngest pins the chunk plane's one routing rule: a
// chunk-shaped key outside the canonical chunks/ namespace is refused by
// the ingest and by the has round, and nothing is stored or leased for
// it — such a key is an object commit.
func TestForeignNamespaceIngest(t *testing.T) {
	l, _, mem := newLocal(t)
	data := []byte("foreign chunk")
	addr := storage.Hash(data)
	foreign := []string{addr[:2] + "/" + addr, "ns/" + chunkKey(addr), "x" + chunkKey(addr), "chunks/x/" + addr[:2] + "/" + addr}
	for _, key := range foreign {
		if _, err := l.IngestChunk(key, data); err == nil || !strings.Contains(err.Error(), "not a chunk key") {
			t.Errorf("IngestChunk(%q) = %v, want a not-a-chunk-key refusal", key, err)
		}
		if _, err := l.HasAddresses([]string{chunkKey(addr), key}); err == nil || !strings.Contains(err.Error(), "not a chunk key") {
			t.Errorf("HasAddresses(%q) = %v, want a not-a-chunk-key refusal", key, err)
		}
		if _, err := mem.Stat(key); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("refused ingest left %q behind (stat err=%v)", key, err)
		}
		if err := l.CommitManifest(key, data); err != nil {
			t.Errorf("object plane refused %q: %v", key, err)
		}
	}
	if st := l.Stats(); st.ChunksIngested != 0 || st.ManifestsCommitted != int64(len(foreign)) {
		t.Errorf("stats = %+v, want 0 chunk ingests and %d object commits", st, len(foreign))
	}
	if got, ok := CanonicalChunkAddr(core.ChunkKey(addr)); !ok || got != addr {
		t.Errorf("CanonicalChunkAddr(core.ChunkKey(addr)) = %q, %v", got, ok)
	}
}

// TestObjectPlaneMatchesBackendContract spot-checks the object plane's
// error mapping (the conformance suite exercises it exhaustively through
// the remote client).
func TestObjectPlaneMatchesBackendContract(t *testing.T) {
	l, _, _ := newLocal(t)
	if err := l.CommitManifest("jobs/j/ckpt-000000000001-full.qckpt", []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.GetObject("absent"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("GetObject(absent) = %v", err)
	}
	if err := l.CommitManifest("../escape", []byte("m")); err == nil {
		t.Error("malformed manifest key accepted")
	}
	keys, err := l.ListObjects("jobs/")
	if err != nil || len(keys) != 1 {
		t.Errorf("ListObjects = %v, %v", keys, err)
	}
	jobs, err := l.Jobs()
	if err != nil || len(jobs) != 1 || jobs[0] != "j" {
		t.Errorf("Jobs = %v, %v", jobs, err)
	}
}

// TestBatchFraming round-trips the binary batch records.
func TestBatchFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchRecord(&buf, BatchStatusOK, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchRecord(&buf, BatchStatusNotFound, []byte("missing: k")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchRecord(&buf, BatchStatusOK, nil); err != nil {
		t.Fatal(err)
	}
	st, p, err := ReadBatchRecord(&buf)
	if err != nil || st != BatchStatusOK || string(p) != "payload" {
		t.Fatalf("record 1: %d %q %v", st, p, err)
	}
	st, p, err = ReadBatchRecord(&buf)
	if err != nil || st != BatchStatusNotFound || string(p) != "missing: k" {
		t.Fatalf("record 2: %d %q %v", st, p, err)
	}
	st, p, err = ReadBatchRecord(&buf)
	if err != nil || st != BatchStatusOK || len(p) != 0 {
		t.Fatalf("record 3: %d %q %v", st, p, err)
	}
	// Truncated stream surfaces an error, not a short record.
	buf.Reset()
	buf.Write([]byte{BatchStatusOK, 0, 0, 0, 10, 'x'})
	if _, _, err := ReadBatchRecord(&buf); err == nil {
		t.Fatal("truncated record read silently")
	}
}
