package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCompactKeepOld(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Dir: dir, Strategy: StrategyDelta, AnchorEvery: 10})
	states := seqStates(6)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	key, removed, err := CompactBackend(dirStore(t, dir), false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("keep mode removed %d files", removed)
	}
	h, err := VerifyFile(filepath.Join(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindFull || h.Seq != 6 {
		t.Errorf("compacted header: %+v", h)
	}
	// Recovery now resolves in one read (chain length 1) to the same state.
	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[5]) {
		t.Errorf("compacted state differs")
	}
	if report.ChainLen != 1 {
		t.Errorf("chain length after compact = %d", report.ChainLen)
	}
}

func TestCompactDeleteOld(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(Options{Dir: dir, Strategy: StrategyDelta, AnchorEvery: 4})
	states := seqStates(9)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	_, removed, err := CompactBackend(dirStore(t, dir), true)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 9 {
		t.Errorf("removed %d files, want 9", removed)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("%d files remain, want 1", len(entries))
	}
	got, _, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[8]) {
		t.Errorf("post-compact restore mismatch")
	}
}

func TestCompactEmptyDir(t *testing.T) {
	if _, _, err := CompactBackend(dirStore(t, t.TempDir()), true); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestCompactThenContinue(t *testing.T) {
	// A manager restarted after compaction continues the sequence past the
	// compacted anchor.
	dir := t.TempDir()
	m, _ := NewManager(Options{Dir: dir, Strategy: StrategyFull})
	states := seqStates(3)
	for _, s := range states {
		m.Save(s)
	}
	m.Close()
	if _, _, err := CompactBackend(dirStore(t, dir), true); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewManager(Options{Dir: dir, Strategy: StrategyFull})
	res, err := m2.Save(states[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 4 {
		t.Errorf("post-compact seq = %d, want 4", res.Seq)
	}
	m2.Close()
}
