package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func TestArchiveUnarchiveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Dir: dir, Strategy: StrategyDelta, AnchorEvery: 3})
	states := seqStates(6)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	cs, err := storage.OpenChunkStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "run1.manifest")
	n, err := ArchiveBackend(dirStore(t, dir), cs, manifest)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("archived %d files, want 6", n)
	}

	dest := filepath.Join(t.TempDir(), "restored")
	rn, err := Unarchive(manifest, cs, dest)
	if err != nil {
		t.Fatal(err)
	}
	if rn != 6 {
		t.Fatalf("restored %d files", rn)
	}
	got, report, err := loadDir(t, dest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[5]) {
		t.Errorf("restored archive yields wrong state (step %d)", got.Step)
	}
	if len(report.Skipped) != 0 {
		t.Errorf("restored archive has broken snapshots: %v", report.Skipped)
	}
}

func TestArchiveDedupAcrossRuns(t *testing.T) {
	// Two checkpoint directories sharing identical snapshot content must
	// share chunks in the store.
	mk := func() string {
		dir := t.TempDir()
		m, _ := NewManager(Options{Dir: dir, Strategy: StrategyFull})
		for _, s := range seqStates(4) {
			if _, err := m.Save(s); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		return dir
	}
	dirA, dirB := mk(), mk()

	cs, _ := storage.OpenChunkStore(filepath.Join(t.TempDir(), "store"))
	if _, err := ArchiveBackend(dirStore(t, dirA), cs, filepath.Join(t.TempDir(), "a.manifest")); err != nil {
		t.Fatal(err)
	}
	if _, err := ArchiveBackend(dirStore(t, dirB), cs, filepath.Join(t.TempDir(), "b.manifest")); err != nil {
		t.Fatal(err)
	}
	addrs, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	// Identical runs produce identical snapshot files → 4 chunks, not 8.
	if len(addrs) != 4 {
		t.Errorf("store holds %d chunks, want 4 (dedup)", len(addrs))
	}
}

func TestArchiveRefusesCorrupt(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Dir: dir, Strategy: StrategyFull})
	res, err := m.Save(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	raw, _ := os.ReadFile(res.Path)
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(res.Path, raw, 0o644)

	cs, _ := storage.OpenChunkStore(filepath.Join(t.TempDir(), "store"))
	if _, err := ArchiveBackend(dirStore(t, dir), cs, filepath.Join(t.TempDir(), "m")); err == nil {
		t.Errorf("corrupt snapshot archived")
	}
}

func TestUnarchiveValidation(t *testing.T) {
	cs, _ := storage.OpenChunkStore(filepath.Join(t.TempDir(), "store"))
	dest := t.TempDir()

	// Missing manifest.
	if _, err := Unarchive(filepath.Join(t.TempDir(), "missing"), cs, dest); err == nil {
		t.Errorf("missing manifest accepted")
	}
	// Bad header.
	badHeader := filepath.Join(t.TempDir(), "bad")
	os.WriteFile(badHeader, []byte("NOPE\n"), 0o644)
	if _, err := Unarchive(badHeader, cs, dest); err == nil {
		t.Errorf("bad header accepted")
	}
	// Foreign file name in manifest (path traversal guard).
	evil := filepath.Join(t.TempDir(), "evil")
	os.WriteFile(evil, []byte("QCKPT-MANIFEST1\nabc ../../etc/passwd\n"), 0o644)
	if _, err := Unarchive(evil, cs, dest); err == nil {
		t.Errorf("foreign manifest entry accepted")
	}
	// Missing chunk.
	missing := filepath.Join(t.TempDir(), "mc")
	os.WriteFile(missing, []byte("QCKPT-MANIFEST1\n"+storage.Hash([]byte("x"))+" ckpt-000000000000-full.qckpt\n"), 0o644)
	if _, err := Unarchive(missing, cs, dest); err == nil {
		t.Errorf("missing chunk accepted")
	}
}
