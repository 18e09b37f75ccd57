package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// snapshotNameCases is the key grammar by example: what parseSnapshotName
// must accept and — everything else a peer's List can return under the
// "ckpt-" prefix — must leave alone. It seeds FuzzParseSnapshotName too.
var snapshotNameCases = []struct {
	name string
	seq  uint64
	kind SnapshotKind
	ok   bool
}{
	{"ckpt-000000000000-full.qckpt", 0, KindFull, true},
	{"ckpt-000000000012-delta.qckpt", 12, KindDelta, true},
	{"ckpt-1000000000000-full.qckpt", 1000000000000, KindFull, true}, // a 13-digit seq is what %012d prints
	{"ckpt-18446744073709551615-delta.qckpt", 1<<64 - 1, KindDelta, true},
	{"ckpt-0x10-full.qckpt", 0, 0, false},  // Sscanf("%d") read these three as seq 0, 12 and 1
	{"ckpt-12abc-full.qckpt", 0, 0, false}, //
	{"ckpt-1_000-delta.qckpt", 0, 0, false},
	{"ckpt- 7-full.qckpt", 0, 0, false},
	{"ckpt-12-full.qckpt", 0, 0, false},                   // fewer than 12 digits
	{"ckpt-0000000000012-full.qckpt", 0, 0, false},        // 13 digits, zero-padded
	{"ckpt-18446744073709551616-full.qckpt", 0, 0, false}, // overflows uint64
	{"ckpt-+00000000012-full.qckpt", 0, 0, false},
	{"ckpt--00000000012-full.qckpt", 0, 0, false},
	{"ckpt-000000000012-full.qckpt.tmp", 0, 0, false},
	{"ckpt-000000000012-full-chunked.qckpt", 0, 0, false},
	{"000000000012-full.qckpt", 0, 0, false},
	{"jobs/a/ckpt-000000000012-full.qckpt", 0, 0, false},
	{"chunks/ab/ab12", 0, 0, false},
	{"ckpt-", 0, 0, false},
	{"", 0, 0, false},
}

func TestParseSnapshotNameTable(t *testing.T) {
	for _, c := range snapshotNameCases {
		seq, kind, ok := parseSnapshotName(c.name)
		if ok != c.ok || seq != c.seq || kind != c.kind {
			t.Errorf("parseSnapshotName(%q) = (%d, %v, %v), want (%d, %v, %v)", c.name, seq, kind, ok, c.seq, c.kind, c.ok)
		}
	}
}

// FuzzParseSnapshotName holds the parser to its contract on arbitrary keys:
// it never panics, and whatever it accepts is exactly a name snapshotName
// produces.
func FuzzParseSnapshotName(f *testing.F) {
	for _, c := range snapshotNameCases {
		f.Add(c.name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		seq, kind, ok := parseSnapshotName(name)
		if !ok {
			if seq != 0 || kind != 0 {
				t.Fatalf("parseSnapshotName(%q) rejected but returned (%d, %v)", name, seq, kind)
			}
			return
		}
		if kind != KindFull && kind != KindDelta {
			t.Fatalf("parseSnapshotName(%q) returned kind %v", name, kind)
		}
		if got := snapshotName(seq, kind); got != name {
			t.Fatalf("parseSnapshotName(%q) = (%d, %v), which names %q", name, seq, kind, got)
		}
	})
}

// hookedBackend injects the faults the scanners must agree on how to treat
// (errInjected is incremental_test.go's).
type hookedBackend struct {
	storage.Backend
	listErrs int                    // fail this many Lists, then pass through
	getErr   func(key string) error // a non-nil result fails the Get of key
	listed   func(prefix string)    // runs after every successful List, before it returns
}

func (h *hookedBackend) List(prefix string) ([]string, error) {
	if h.listErrs > 0 {
		h.listErrs--
		return nil, errInjected
	}
	keys, err := h.Backend.List(prefix)
	if err == nil && h.listed != nil {
		h.listed(prefix)
	}
	return keys, err
}

func (h *hookedBackend) Get(key string) ([]byte, error) {
	if h.getErr != nil {
		if err := h.getErr(key); err != nil {
			return nil, err
		}
	}
	return h.Backend.Get(key)
}

// keepSet flattens a reference scan into the addresses it names.
func keepSet(refs map[string][]string, err error) (map[string]bool, error) {
	keep := make(map[string]bool)
	for _, addrs := range refs {
		for _, a := range addrs {
			keep[a] = true
		}
	}
	return keep, err
}

// chunkReferences is what the manifests present in one namespace reference.
func chunkReferences(b storage.Backend) (map[string]bool, error) {
	refs := make(map[string][]string)
	return keepSet(refs, manifestReferences(b, "", refs))
}

// allChunkReferences is the tenant-complete keep-set: the fresh scan every
// reference index is checked against.
func allChunkReferences(b storage.Backend) (map[string]bool, error) {
	return keepSet(allManifestReferences(b))
}

// pinnedChunks snapshots the addresses in-flight saves pin — with a shared
// store, every manager's.
func (m *Manager) pinnedChunks() map[string]bool {
	out := make(map[string]bool)
	for i := range m.shared.pins.stripes {
		s := &m.shared.pins.stripes[i]
		s.mu.Lock()
		for a := range s.refs {
			out[a] = true
		}
		s.mu.Unlock()
	}
	return out
}

func refKeys(refs []snapshotRef) []string {
	keys := make([]string, len(refs))
	for i, r := range refs {
		keys[i] = r.key
	}
	return keys
}

func mustList(t testing.TB, b storage.Backend) []snapshotRef {
	t.Helper()
	refs, err := listSnapshots(b)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func mustNextSeq(t *testing.T, refs []snapshotRef) uint64 {
	t.Helper()
	seq, err := nextSeq(refs)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// legacyManifest rewrites a CHUNKS2 manifest body as the QCKPT-CHUNKS1
// format only PRs 1–3 wrote: an unknown magic to every reader since PR 18.
func legacyManifest(v2 []byte) []byte {
	return append([]byte("QCKPT-CHUNKS1"), v2[len(chunkManifestMagic):]...)
}

func TestListSnapshotsOrderAndNextSeq(t *testing.T) {
	mem := storage.NewMem()
	if refs := mustList(t, mem); len(refs) != 0 || mustNextSeq(t, refs) != 0 {
		t.Fatalf("empty store: refs %v, next seq %d", refs, mustNextSeq(t, refs))
	}
	// Seq order, not name order: the 13-digit name sorts before the others.
	want := []string{
		snapshotName(3, KindFull), snapshotName(4, KindDelta), snapshotName(40, KindFull),
		snapshotName(999999999999, KindDelta), snapshotName(1000000000000, KindFull),
	}
	foreign := []string{"ckpt-0x10-full.qckpt", "ckpt-bogus.qckpt", "ckpt-000000000005-full.qckpt.bak", ChunkKey(storage.Hash([]byte("c"))), "jobs/j/" + snapshotName(77, KindFull)}
	for _, k := range append(append([]string(nil), foreign...), want[4], want[2], want[0], want[3], want[1]) {
		if err := mem.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	refs := mustList(t, mem)
	if got := refKeys(refs); !reflect.DeepEqual(got, want) {
		t.Fatalf("listSnapshots = %v, want %v", got, want)
	}
	for i, r := range refs {
		if seq, kind, _ := parseSnapshotName(want[i]); r.seq != seq || r.kind != kind {
			t.Errorf("ref %d = %+v, want seq %d kind %v", i, r, seq, kind)
		}
	}
	if got := mustNextSeq(t, refs); got != 1000000000001 {
		t.Errorf("nextSeq = %d, want 1000000000001", got)
	}
	if _, err := listSnapshots(&hookedBackend{Backend: mem, listErrs: 1}); !errors.Is(err, errInjected) {
		t.Errorf("listSnapshots swallowed the backend's error: %v", err)
	}
	// The last sequence number has no successor: wrapping to 0 would restart
	// on top of the oldest chain.
	last := snapshotName(math.MaxUint64, KindFull)
	if err := mem.Put(last, []byte("x")); err != nil {
		t.Fatal(err)
	}
	refs = mustList(t, mem)
	if got := refs[len(refs)-1].key; got != last {
		t.Fatalf("newest ref %s, want %s", got, last)
	}
	if seq, err := nextSeq(refs); err == nil || !strings.Contains(err.Error(), "sequence space exhausted") {
		t.Errorf("nextSeq after seq %d = %d, %v; want the sequence space exhausted", uint64(math.MaxUint64), seq, err)
	}
}

func TestAnchorChains(t *testing.T) {
	const F, D = KindFull, KindDelta
	type link struct {
		seq  uint64
		kind SnapshotKind
	}
	cases := []struct {
		name string
		in   []link
		want [][]uint64
	}{
		{"empty", nil, nil},
		{"one chain", []link{{0, F}, {1, D}, {2, D}}, [][]uint64{{0, 1, 2}}},
		{"leading orphan deltas", []link{{3, D}, {4, D}, {5, F}, {6, D}}, [][]uint64{{3, 4}, {5, 6}}},
		{"only orphan deltas", []link{{3, D}, {4, D}}, [][]uint64{{3, 4}}},
		{"back-to-back anchors", []link{{0, F}, {1, F}, {2, F}, {3, D}}, [][]uint64{{0}, {1}, {2, 3}}},
		{"gaps", []link{{0, F}, {2, D}, {9, D}, {16, F}, {40, D}}, [][]uint64{{0, 2, 9}, {16, 40}}},
	}
	for _, c := range cases {
		var refs []snapshotRef
		for _, l := range c.in {
			refs = append(refs, snapshotRef{key: snapshotName(l.seq, l.kind), seq: l.seq, kind: l.kind})
		}
		var got [][]uint64
		for _, chain := range anchorChains(refs) {
			var seqs []uint64
			for _, r := range chain {
				seqs = append(seqs, r.seq)
			}
			got = append(got, seqs)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: chains %v, want %v", c.name, got, c.want)
		}
	}
}

func TestManifestAddrs(t *testing.T) {
	mem := storage.NewMem()
	addrs := []string{storage.Hash([]byte("a")), storage.Hash([]byte("b")), storage.Hash([]byte("a"))}
	put := func(seq uint64, kind SnapshotKind, body []byte) string {
		t.Helper()
		data, err := EncodeSnapshotFile(Header{Kind: kind, Seq: seq}, body)
		if err != nil {
			t.Fatal(err)
		}
		key := snapshotName(seq, kind)
		if err := mem.Put(key, data); err != nil {
			t.Fatal(err)
		}
		return key
	}
	v2 := appendChunkManifest(nil, 3*MinChunkBytes, cdcParams{}, addrs)
	v3 := appendChunkManifest(nil, 3*MinChunkBytes, cdcParamsFor(MinChunkBytes), addrs)
	mono := put(0, KindFull, []byte("a monolithic payload"))
	chunked := map[string]string{
		"CHUNKS2": put(2, KindDeltaChunked, v2),
		"CHUNKS3": put(3, KindFullChunked, v3),
	}
	for name, key := range chunked {
		if got, err := manifestAddrs(mem, key); err != nil || !reflect.DeepEqual(got, addrs) {
			t.Errorf("%s: manifestAddrs = %v, %v; want the manifest's addresses in order", name, got, err)
		}
	}
	// A monolithic snapshot is recognised on the header probe: its body is
	// never fetched. (Mem has no ranged read, so the probe is the one Get.)
	gets := 0
	counting := &hookedBackend{Backend: mem, getErr: func(string) error { gets++; return nil }}
	if got, err := manifestAddrs(counting, mono); err != nil || got != nil || gets != 1 {
		t.Errorf("monolithic: manifestAddrs = %v, %v after %d reads; want nothing after the probe alone", got, err, gets)
	}
	// Torn and corrupt objects reference nothing and are not an error; a
	// CHUNKS1 manifest, whose reader is gone, is one of them.
	whole, _ := mem.Get(chunked["CHUNKS2"])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-40] ^= 1
	badManifest, _ := EncodeSnapshotFile(Header{Kind: KindFullChunked, Seq: 9}, []byte("QCKPT-CHUNKS2\nnot a length\n"))
	legacy, _ := EncodeSnapshotFile(Header{Kind: KindDeltaChunked, Seq: 1}, legacyManifest(v2))
	for name, data := range map[string][]byte{
		"empty": {}, "torn inside the header": whole[:headerSize/2], "torn after the header": whole[:headerSize+4],
		"bit flip": flipped, "undecodable manifest": badManifest, "CHUNKS1 manifest": legacy, "not a snapshot": []byte("junk that is long enough to hold a whole header, but has no magic: ....................................."),
	} {
		key := snapshotName(20, KindFull)
		if err := mem.Put(key, data); err != nil {
			t.Fatal(err)
		}
		if got, err := manifestAddrs(mem, key); err != nil || got != nil {
			t.Errorf("%s: manifestAddrs = %v, %v; want no references and no error", name, got, err)
		}
	}
	// Backend errors come back as they are, for the caller to judge.
	if _, err := manifestAddrs(mem, snapshotName(99, KindFull)); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("missing key: err %v, want ErrNotFound", err)
	}
	failing := &hookedBackend{Backend: mem, getErr: func(string) error { return errInjected }}
	if _, err := manifestAddrs(failing, chunked["CHUNKS2"]); !errors.Is(err, errInjected) {
		t.Errorf("failed read: err %v, want the backend's", err)
	}
}

// TestNewManagerFailsOnListError is the regression test for the swallowed
// listing error: a store whose List fails once must fail the open, not hand
// out a manager that restarts the sequence at 0 over a predecessor's
// snapshots.
func TestNewManagerFailsOnListError(t *testing.T) {
	mem := storage.NewMem()
	if err := mem.Put(snapshotName(12, KindFull), []byte("a predecessor's snapshot")); err != nil {
		t.Fatal(err)
	}
	flaky := &hookedBackend{Backend: mem, listErrs: 1}
	if m, err := NewManager(Options{Backend: flaky}); err == nil {
		res, _ := m.Save(sampleState())
		m.Close()
		t.Fatalf("NewManager opened over a failed listing; its first save took seq %d in a store holding seq 12", res.Seq)
	} else if !errors.Is(err, errInjected) {
		t.Fatalf("NewManager error %v does not wrap the listing failure", err)
	}
	m, err := NewManager(Options{Backend: flaky}) // the listing works again
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if res, err := m.Save(sampleState()); err != nil || res.Seq != 13 {
		t.Fatalf("first save after a clean open: seq %d, err %v; want seq 13", res.Seq, err)
	}

	svc, err := NewService(ServiceOptions{Backend: &hookedBackend{Backend: storage.NewMem(), listErrs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.OpenJob("j", Options{}); !errors.Is(err, errInjected) {
		t.Fatalf("OpenJob over a failed listing: err %v, want the listing failure", err)
	}
	if _, err := svc.OpenJob("j", Options{}); err != nil {
		t.Fatalf("OpenJob after the failed one: %v", err)
	}
}

// TestNewManagerFailsOnExhaustedSequence is the regression test for the
// sequence wrap-around: over a store whose newest snapshot holds the last
// sequence number, an open or a compaction that continued at seq 0 would
// overwrite the oldest chain.
func TestNewManagerFailsOnExhaustedSequence(t *testing.T) {
	mem := saveChain(t, Options{}, seqStates(1))
	first, err := mem.Get(snapshotName(0, KindFull))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(snapshotName(math.MaxUint64, KindFull), first); err != nil {
		t.Fatal(err)
	}
	const want = "sequence space exhausted"
	if m, err := NewManager(Options{Backend: mem}); err == nil {
		res, _ := m.Save(sampleState())
		m.Close()
		t.Fatalf("NewManager opened past the last sequence number; its first save took seq %d", res.Seq)
	} else if !strings.Contains(err.Error(), want) {
		t.Fatalf("NewManager error %v, want %q", err, want)
	}
	if key, _, err := CompactBackend(mem, true); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CompactBackend wrote %q (err %v), want %q", key, err, want)
	}
	if got, err := mem.Get(snapshotName(0, KindFull)); err != nil || !bytes.Equal(got, first) {
		t.Errorf("seq 0 was overwritten (err %v)", err)
	}
}

// TestForeignSnapshotNamesAreLeftAlone is the regression test for the
// lenient key parser: objects that merely look like snapshots are not
// counted into the sequence, not deleted by retention and not reported by
// recovery or verification.
func TestForeignSnapshotNamesAreLeftAlone(t *testing.T) {
	mem := storage.NewMem()
	foreign := []string{"ckpt-0x10-full.qckpt", "ckpt-12abc-full.qckpt", "ckpt-1_000-delta.qckpt"}
	for _, k := range foreign {
		if err := mem.Put(k, []byte("someone else's object")); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(Options{Backend: mem, Strategy: StrategyFull, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(4)
	for i, s := range states {
		if res, err := m.Save(s); err != nil || res.Seq != uint64(i) {
			t.Errorf("save %d: seq %d, err %v; an empty store opens at seq 0 whatever lies beside it", i, res.Seq, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range foreign {
		if _, err := mem.Stat(k); err != nil {
			t.Errorf("Retain 1 deleted foreign object %s: %v", k, err)
		}
	}
	if got, want := refKeys(mustList(t, mem)), []string{snapshotName(3, KindFull)}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Retain 1 the store's snapshots are %v, want %v", got, want)
	}
	got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil || !got.Equal(states[3]) || len(report.Skipped) != 0 {
		t.Errorf("recovery beside foreign objects: err %v, skipped %v", err, report.Skipped)
	}
	if ok, problems, err := VerifyBackend(mem); err != nil || ok != 1 || len(problems) != 0 {
		t.Errorf("verify beside foreign objects: ok %d, problems %v, err %v", ok, problems, err)
	}
}

// TestScannersAgree builds one awkward store and checks that every scanner
// sees the same snapshots in it: the sequence continuation, retention's
// cutoff, lifecycle's chains, the GC keep-set, recovery's index and
// compaction's next sequence number are all functions of listSnapshots'
// refs — none has a key grammar or a chain rule of its own — and that the
// in-memory reference index says what a fresh scan says after every step of
// every scripted sequence (refindex_test.go).
//
// The store: two chains of three (AnchorEvery 3, chunked), then seq 1 torn
// to a stub, seq 4 deleted (seq 5's base is missing), a foreign
// "ckpt-0x10-full.qckpt" beside them and, newest of all, seq 6: a delta on
// anchor 3 whose manifest is in the CHUNKS1 format nothing reads any more.
func TestScannersAgree(t *testing.T) {
	states := bigSeqStates(6)
	src := saveChain(t, Options{AnchorEvery: 3, ChunkBytes: MinChunkBytes}, states)
	torn, missing, foreign := snapshotName(1, KindDelta), snapshotName(4, KindDelta), "ckpt-0x10-full.qckpt"
	legacy := snapshotName(6, KindDelta)
	{
		anchor, err := probeHeader(src, snapshotName(3, KindFull))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := src.Get(snapshotName(5, KindDelta))
		h, manifest, err := DecodeSnapshotFile(data)
		if err != nil {
			t.Fatal(err)
		}
		h.Seq, h.BaseHash, h.PayloadHash = 6, anchor.PayloadHash, PayloadHash([]byte("never reconstructed"))
		if data, err = EncodeSnapshotFile(h, legacyManifest(manifest)); err != nil {
			t.Fatal(err)
		}
		if err := src.Put(legacy, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Put(torn, []byte("QCKPT1 torn")); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete(missing); err != nil {
		t.Fatal(err)
	}
	if err := src.Put(foreign, []byte("someone else's object")); err != nil {
		t.Fatal(err)
	}
	refs := mustList(t, src)
	wantKeys := []string{snapshotName(0, KindFull), torn, snapshotName(2, KindDelta), snapshotName(3, KindFull), snapshotName(5, KindDelta), legacy}
	if got := refKeys(refs); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("refs %v, want %v", got, wantKeys)
	}
	chains := anchorChains(refs)
	if len(chains) != 2 || len(chains[0]) != 3 || len(chains[1]) != 3 {
		t.Fatalf("chains %v, want [0 1 2] [3 5 6]", chains)
	}

	t.Run("keep-set", func(t *testing.T) {
		// The keep-set is the union of manifestAddrs over the refs, less a
		// manifest that vanishes between the listing and its read.
		vanishing := snapshotName(2, KindDelta)
		want := make(map[string]bool)
		for _, r := range refs {
			addrs, err := manifestAddrs(src, r.key)
			if err != nil {
				t.Fatal(err)
			}
			if (r.key == torn || r.key == legacy) && addrs != nil {
				t.Errorf("unreadable manifest %s references %d chunks", r.key, len(addrs))
			}
			if r.key != vanishing {
				for _, a := range addrs {
					want[a] = true
				}
			}
		}
		store := copyBackend(t, src)
		got, err := chunkReferences(&hookedBackend{Backend: store, listed: func(string) { store.Delete(vanishing) }})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("keep-set has %d addresses (err %v), want the %d the surviving refs name", len(got), err, len(want))
		}
		// Any other failed read aborts the scan: nothing may be swept on a
		// keep-set that could be missing live references.
		unreadable := &hookedBackend{Backend: src, getErr: func(key string) error {
			if key == chains[1][0].key {
				return errInjected
			}
			return nil
		}}
		if _, err := chunkReferences(unreadable); !errors.Is(err, errInjected) {
			t.Errorf("keep-set scan over an unreadable manifest: err %v, want it to abort", err)
		}
	})

	t.Run("recovery index", func(t *testing.T) {
		bySeq, _, skipped, err := newSnapshotView(src, RestoreOptions{}).buildIndex()
		if err != nil {
			t.Fatal(err)
		}
		var indexed []string
		for i := len(bySeq) - 1; i >= 0; i-- { // the index is newest first
			ent := bySeq[i]
			if ent.seq != ent.h.Seq || ent.kind != ent.h.Kind.Base() {
				t.Errorf("index entry %s: name says (%d, %v), header (%d, %v)", ent.key, ent.seq, ent.kind, ent.h.Seq, ent.h.Kind)
			}
			indexed = append(indexed, ent.key)
		}
		if !reflect.DeepEqual(skipped, []string{torn}) {
			t.Errorf("index skipped %v, want the torn manifest alone", skipped)
		}
		all := append(indexed, skipped...)
		sort.Strings(all)
		if !reflect.DeepEqual(all, wantKeys) {
			t.Errorf("index ∪ skipped = %v, want the refs %v", all, wantKeys)
		}
		// Newest first: seq 6 is a CHUNKS1 manifest, seq 5 has no base, seq 3
		// is the newest restorable.
		got, report, err := LoadLatestBackendOptions(src, nil, RestoreOptions{})
		if err != nil || !got.Equal(states[3]) || report.Seq != 3 || len(report.Skipped) != 3 {
			t.Fatalf("restored seq %d (err %v), skipped %v; want seq 3 past the torn stub, the CHUNKS1 manifest and the baseless delta", report.Seq, err, report.Skipped)
		}
		const rejection = "bad chunk manifest header"
		if why := report.Skipped[1]; !strings.HasPrefix(why, legacy) || !strings.Contains(why, rejection) {
			t.Errorf("skipped %q, want %s rejected for its manifest magic", why, legacy)
		}
		ok, problems, err := VerifyBackend(src)
		named := false
		for _, p := range problems {
			named = named || (strings.HasPrefix(p, legacy) && strings.Contains(p, rejection))
		}
		if err != nil || ok != 2 || len(problems) != 4 || !named {
			t.Errorf("verify: %d sound, problems %v, err %v; want the two anchors sound and %s named for its manifest magic", ok, problems, err, legacy)
		}
	})

	t.Run("compaction", func(t *testing.T) {
		store := copyBackend(t, src)
		newKey, removed, err := CompactBackend(store, true)
		if want := snapshotName(mustNextSeq(t, refs), KindFull); err != nil || newKey != want || removed != len(refs) {
			t.Fatalf("compacted to %q removing %d (err %v), want %q removing the %d refs", newKey, removed, err, want, len(refs))
		}
		if got := refKeys(mustList(t, store)); !reflect.DeepEqual(got, []string{newKey}) {
			t.Errorf("after compaction the store's snapshots are %v", got)
		}
		if _, err := store.Stat(foreign); err != nil {
			t.Errorf("compaction deleted the foreign object: %v", err)
		}
	})

	t.Run("retention", func(t *testing.T) {
		// A successor with Retain 2 continues at nextSeq and its first anchor
		// makes chain [3 5 6] the oldest kept: the cutoff is that chain's
		// anchor, and exactly chains[0] goes.
		store := copyBackend(t, src)
		m, err := NewManager(Options{Backend: store, Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: MinChunkBytes, Retain: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Save(states[5])
		if want := mustNextSeq(t, refs); err != nil || res.Seq != want || res.Kind != KindFull {
			t.Fatalf("successor's first save: seq %d kind %v err %v, want a full at seq %d", res.Seq, res.Kind, err, want)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(refKeys(chains[1]), snapshotName(res.Seq, KindFull))
		if got := refKeys(mustList(t, store)); !reflect.DeepEqual(got, want) {
			t.Errorf("after Retain 2 the store's snapshots are %v, want %v", got, want)
		}
		if _, err := store.Stat(foreign); err != nil {
			t.Errorf("retention deleted the foreign object: %v", err)
		}
		// What is left restores, and the collection retention triggered kept
		// every chunk it needs.
		if got, report, err := LoadLatestBackendOptions(store, nil, RestoreOptions{}); err != nil || !got.Equal(states[5]) || report.Seq != res.Seq {
			t.Errorf("restore after retention: seq %d, err %v", report.Seq, err)
		}
	})

	t.Run("lifecycle", func(t *testing.T) {
		// KeepHotChains 1 demotes exactly chains[0] — manifests, torn stub
		// included, and the chunks chains[1] does not share — and leaves the
		// foreign object where it is.
		levels := memTiers("hot", "cold")
		levels[0].Backend = copyBackend(t, src)
		tb, err := storage.NewTiered(levels...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Migrate(tb, LifecyclePolicy{KeepHotChains: 1})
		if err != nil || rep.Chains != 1 || rep.Manifests != len(chains[0]) {
			t.Fatalf("migrate: %+v, err %v; want one chain of %d manifests", rep, err, len(chains[0]))
		}
		cold := append(refKeys(mustList(t, levels[1].Backend)), refKeys(mustList(t, levels[0].Backend))...)
		if !reflect.DeepEqual(cold[:3], refKeys(chains[0])) || !reflect.DeepEqual(cold[3:], refKeys(chains[1])) {
			t.Errorf("cold then hot manifests %v, want chains %v then %v", cold, refKeys(chains[0]), refKeys(chains[1]))
		}
		if lv, err := tb.Residency(foreign); err != nil || lv != 0 {
			t.Errorf("foreign object at level %d (err %v), want it left hot", lv, err)
		}
		hotKeep, err := chunkReferences(levels[0].Backend)
		if err != nil {
			t.Fatal(err)
		}
		// Chunks only the torn stub or the deleted delta named are orphans:
		// no chain claims them, so they stay where they are for GC.
		referenced, err := chunkReferences(src)
		if err != nil {
			t.Fatal(err)
		}
		hotChunks, _ := storage.NewChunkStore(storage.WithPrefix(levels[0].Backend, ChunkPrefix)).List()
		for _, a := range hotChunks {
			if referenced[a] && !hotKeep[a] {
				t.Errorf("hot level retains chunk %.12s… that only the demoted chain references", a)
			}
		}
		for a := range hotKeep {
			if lv, err := tb.Residency(ChunkKey(a)); err != nil || lv != 0 {
				t.Errorf("chunk %.12s… of the hot chain is at level %d (err %v)", a, lv, err)
			}
		}
	})

	t.Run("reference index", func(t *testing.T) { refIndexScripts(t, src, states) })

	t.Run("lifecycle aborts on an unreadable manifest", func(t *testing.T) {
		// A kept chain whose manifest cannot be read would silently drop out
		// of the reference set and its chunks would be demoted under it.
		levels := memTiers("hot", "cold")
		levels[0].Backend = &hookedBackend{Backend: copyBackend(t, src), getErr: func(key string) error {
			if key == chains[1][0].key {
				return errInjected
			}
			return nil
		}}
		tb, err := storage.NewTiered(levels...)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := Migrate(tb, LifecyclePolicy{KeepHotChains: 1}); !errors.Is(err, errInjected) || rep.Manifests != 0 || rep.Chunks != 0 {
			t.Errorf("migrate over an unreadable kept manifest: %+v, err %v; want the pass aborted", rep, err)
		}
		if keys, _ := levels[1].Backend.List(""); len(keys) != 0 {
			t.Errorf("aborted pass copied %v to the cold level", keys)
		}
	})
}
