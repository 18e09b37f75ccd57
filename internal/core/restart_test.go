package core

import (
	"os"
	"testing"
)

// TestManagerRestartContinuesSequence covers the cross-incarnation bug: a
// restarted manager must not reuse sequence numbers (overwriting files that
// existing delta chains reference) and must anchor its first snapshot.
func TestManagerRestartContinuesSequence(t *testing.T) {
	dir := t.TempDir()

	m1, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(5)
	for _, s := range states[:3] {
		if _, err := m1.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	m1.Close()

	// Second incarnation (post-crash).
	m2, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m2.Save(states[3])
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 {
		t.Errorf("restarted manager reused seq: got %d, want 3", res.Seq)
	}
	if res.Kind != KindFull {
		t.Errorf("restarted manager's first snapshot is %v, want full anchor", res.Kind)
	}
	if _, err := m2.Save(states[4]); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	// All five snapshots coexist; recovery restores the newest.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 5 {
		t.Fatalf("%d files on disk, want 5", len(entries))
	}
	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[4]) {
		t.Errorf("restored wrong state (step %d)", got.Step)
	}
	if report.Seq != 4 {
		t.Errorf("restored seq %d", report.Seq)
	}

	// The pre-crash chain remains fully recoverable too.
	ok, problems, err := VerifyBackend(dirStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if ok != 5 || len(problems) != 0 {
		t.Errorf("VerifyBackend after restart: ok=%d problems=%v", ok, problems)
	}
}
