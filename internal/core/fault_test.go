package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// TestRecoveryNeverReturnsWrongState is the fault-injection sweep: corrupt
// the newest snapshot in many different ways — truncation at every region,
// bit flips across the file, zeroed ranges — and assert the recovery path
// either falls back to an older *correct* state or reports no checkpoint,
// but never returns garbage.
func TestRecoveryNeverReturnsWrongState(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 30; trial++ {
		dir := t.TempDir()
		m, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyDelta, AnchorEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		states := seqStates(5)
		var lastPath string
		for _, s := range states {
			res, err := m.Save(s)
			if err != nil {
				t.Fatal(err)
			}
			lastPath = filepath.Join(dir, res.Path)
		}
		m.Close()

		raw, err := os.ReadFile(lastPath)
		if err != nil {
			t.Fatal(err)
		}
		corrupted := append([]byte{}, raw...)
		switch trial % 4 {
		case 0: // truncate at a random point
			corrupted = corrupted[:r.Intn(len(corrupted))]
		case 1: // flip a random bit
			pos := r.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 << uint(r.Intn(8)))
		case 2: // zero a random range
			start := r.Intn(len(corrupted))
			end := start + 1 + r.Intn(len(corrupted)-start)
			for i := start; i < end; i++ {
				corrupted[i] = 0
			}
		case 3: // append garbage
			extra := make([]byte, 1+r.Intn(64))
			for i := range extra {
				extra[i] = byte(r.Uint64())
			}
			corrupted = append(corrupted, extra...)
		}
		if err := os.WriteFile(lastPath, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}

		got, _, err := loadDir(t, dir, nil)
		if err != nil {
			t.Fatalf("trial %d: recovery failed entirely: %v", trial, err)
		}
		// The result must be byte-exactly one of the states we actually
		// saved (the corrupted newest one or an older fallback — in the
		// vanishingly unlikely case the corruption left the file valid,
		// it still decodes to the true newest state because every layer is
		// hash-verified).
		match := false
		for _, s := range states {
			if got.Equal(s) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("trial %d: recovery returned a state that was never saved (step %d)", trial, got.Step)
		}
	}
}

// TestRecoverySurvivesTornDirectoryState simulates a crash during a write:
// a dangling temp file plus a half-written snapshot must not break
// recovery of earlier snapshots.
func TestRecoverySurvivesTornDirectoryState(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	states := seqStates(3)
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	// A leftover temp file (crash before rename)…
	if err := os.WriteFile(filepath.Join(dir, ".tmp-ckpt-000000000003-full.qckpt-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// …and a half-written "next" snapshot that got a valid name but torn
	// contents too short to even carry a header (crash in a non-atomic
	// writer; ours is atomic, but recovery must still cope with foreign
	// tools).
	full, _ := os.ReadFile(filepath.Join(dir, snapshotName(2, KindFull)))
	if err := os.WriteFile(filepath.Join(dir, snapshotName(3, KindFull)), full[:40], 0o644); err != nil {
		t.Fatal(err)
	}

	got, report, err := loadDir(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(states[2]) {
		t.Errorf("torn directory: recovered step %d, want 2", got.Step)
	}
	if len(report.Skipped) == 0 {
		t.Errorf("torn snapshot not reported")
	}
}

// TestEveryByteFlipDetectedSmall exhaustively flips every byte of a small
// snapshot file and verifies no flip can slip through verification as a
// "valid" file with different content.
func TestEveryByteFlipDetectedSmall(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Backend: dirStore(t, dir), Strategy: StrategyFull})
	if err != nil {
		t.Fatal(err)
	}
	st := sampleState()
	res, err := m.Save(st)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	raw, err := os.ReadFile(filepath.Join(dir, res.Path))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos++ {
		corrupted := append([]byte{}, raw...)
		corrupted[pos] ^= 0x01
		if _, _, err := checkSnapshotFile(corrupted); err != nil {
			continue // detected: good
		}
		// SHA-256 collision territory — cannot happen; if the check passed
		// the content must be byte-identical, which a flip precludes.
		t.Fatalf("byte flip at %d passed whole-file verification", pos)
	}
}

// TestAbortedPersistReturnsZeroDeltaBody aborts two chunked delta saves
// mid-persist, one at a chunk write and one at its manifest put. Each
// aborted body must still go back to its manager's free list, all zero over
// its capacity — TestMain's poolHook checks that promise on every return —
// and the saves after it must restore bitwise. Close hands back every
// buffer the manager took.
func TestAbortedPersistReturnsZeroDeltaBody(t *testing.T) {
	fb := newFaultBackend()
	out := pooledOut.Load()
	m, err := NewManager(Options{Backend: fb, Strategy: StrategyDelta, AnchorEvery: 3, ChunkBytes: MinChunkBytes, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := bigSeqStates(8)
	for i, s := range states {
		switch i {
		case 2:
			fb.mu.Lock()
			fb.failChunks = true
			fb.mu.Unlock()
		case 4:
			fb.arm(snapshotName(4, KindDelta), 0)
		default:
			mustSave(t, m, s)
			continue
		}
		zeros := zeroReturns.Load()
		if _, err := m.Save(s); !errors.Is(err, errInjected) {
			t.Fatalf("save %d: %v, want the injected failure", i, err)
		}
		fb.mu.Lock()
		fb.failPut, fb.failChunks = "", false
		fb.mu.Unlock()
		if zeroReturns.Load() == zeros {
			t.Fatalf("save %d: the aborted delta body did not go back to the free list", i)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if now := pooledOut.Load(); now != out {
		t.Errorf("%d pooled buffers still out after Close", now-out)
	}
	mustRestoreLatest(t, fb, states[len(states)-1])
}
