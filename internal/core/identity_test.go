package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// checkLeaves holds the leaves edited borrows from base — base's root input
// handed on, as a save hands it to the next — to a computation from
// scratch: the same root input byte for byte, the same root, and no more
// bytes hashed.
func checkLeaves(t *testing.T, base, edited []byte, leaf int) int {
	t.Helper()
	baseTree, _, _ := hashLeaves(nil, base, nil, leaf)
	tree, root, hashed := hashLeaves(baseTree, edited, base, leaf)
	want, wantRoot, all := hashLeaves(nil, edited, nil, leaf)
	if !bytes.Equal(tree, want) || root != wantRoot {
		t.Fatalf("%d → %d bytes under %d-byte leaves: the leaves reused from the base are not the edited body's", len(base), len(edited), leaf)
	}
	if hashed > all {
		t.Fatalf("%d → %d bytes: %d bytes hashed, more than the %d of a computation from scratch", len(base), len(edited), hashed, all)
	}
	return hashed
}

// TestLeavesReusedMatchFresh edits bodies around a leaf boundary — lengths
// leaf−1, leaf and leaf+1, growth and shrinkage across and inside a leaf —
// and checks the reused leaves against a fresh computation and the bytes
// hashed against the leaves the edit changed, plus the root's input.
func TestLeavesReusedMatchFresh(t *testing.T) {
	const leaf = 64
	body := cdcTestBlob(4*leaf, 28)
	for _, tc := range []struct {
		name         string
		base, edited int
		flip         int // byte of the edited body flipped, or -1
		want         int // bytes hashed: changed leaves + 8 + 32·leaves
	}{
		{"leaf-1 unchanged", leaf - 1, leaf - 1, -1, 8 + 32},
		{"leaf unchanged", leaf, leaf, -1, 8 + 32},
		{"leaf+1 unchanged", leaf + 1, leaf + 1, -1, 8 + 64},
		{"leaf+1, tail byte flipped", leaf + 1, leaf + 1, leaf, 8 + 64 + 1},
		{"leaf, first byte flipped", leaf, leaf, 0, 8 + 32 + leaf},
		{"grow leaf-1 to leaf", leaf - 1, leaf, -1, 8 + 32 + leaf},
		{"grow leaf to leaf+1", leaf, leaf + 1, -1, 8 + 64 + 1},
		{"grow across a boundary", leaf - 1, leaf + 1, -1, 8 + 64 + leaf + 1},
		{"grow inside the last leaf", 2*leaf - 10, 2*leaf - 4, -1, 8 + 64 + leaf - 4},
		{"shrink leaf+1 to leaf", leaf + 1, leaf, -1, 8 + 32},
		{"shrink across a boundary", leaf + 1, leaf - 1, -1, 8 + 32 + leaf - 1},
		{"shrink inside the last leaf", 2*leaf - 4, 2*leaf - 10, -1, 8 + 64 + leaf - 10},
		{"shrink to empty", leaf, 0, -1, 8},
		{"grow from empty", 0, leaf + 1, -1, 8 + 64 + leaf + 1},
	} {
		edited := bytes.Clone(body[:tc.edited])
		if tc.flip >= 0 {
			edited[tc.flip] ^= 0xFF
		}
		if got := checkLeaves(t, body[:tc.base], edited, leaf); got != tc.want {
			t.Errorf("%s: %d bytes hashed, want %d", tc.name, got, tc.want)
		}
	}
	// A root input of another shape than the base's lends nothing.
	stranger, _, _ := hashLeaves(nil, body[:leaf], nil, leaf)
	_, want, _ := hashLeaves(nil, body, nil, leaf)
	if _, root, hashed := hashLeaves(stranger, body, body[:3*leaf], leaf); root != want || hashed != 8+32*4+4*leaf {
		t.Errorf("a root input of another shape lent leaves: %d bytes hashed", hashed)
	}
}

// fixtureStates are the states every store under testdata/qckpt1 saved,
// seq by seq, and the three the tests below save after them.
func fixtureStates() []*TrainingState { return bigSeqStates(8) }

// openFixture copies the QCKPT1 store name (monolithic, fixed or cdc: one
// anchor and four deltas of fixtureStates, written before payload identities
// became leaf roots) into a fresh directory and opens it.
func openFixture(t *testing.T, name string) (string, storage.Backend) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "qckpt1", name))); err != nil {
		t.Fatal(err)
	}
	return dir, dirStore(t, dir)
}

// restoresBitwise restores b and fails unless it is seq, holding the state
// saved as seq state, bitwise.
func restoresBitwise(t *testing.T, what string, b storage.Backend, seq, state uint64) LoadReport {
	t.Helper()
	got, report, err := LoadLatestBackendOptions(b, nil, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatalf("%s: %v (skipped %v)", what, err, report.Skipped)
	}
	if report.Seq != seq || !got.Equal(fixtureStates()[state]) {
		t.Fatalf("%s: restored seq %d, want seq %d holding state %d bitwise (skipped %v)", what, report.Seq, seq, state, report.Skipped)
	}
	return report
}

// TestQCKPT1StoresStillRestore: stores written under the whole-payload rule
// restore bitwise and verify clean; a manager that opens one writes QCKPT2
// files beside them, which restore, and damage to its anchor falls back to
// the QCKPT1 chain; compaction writes a QCKPT2 anchor that verifies.
func TestQCKPT1StoresStillRestore(t *testing.T) {
	for name, opt := range map[string]Options{
		"monolithic": {},
		"fixed":      {ChunkBytes: MinChunkBytes},
		"cdc":        {ChunkBytes: MinChunkBytes, Chunker: ChunkerCDC},
	} {
		t.Run(name, func(t *testing.T) {
			dir, b := openFixture(t, name)
			if report := restoresBitwise(t, "the QCKPT1 store", b, 4, 4); len(report.Skipped) != 0 || report.ConvictionWalks != 0 {
				t.Errorf("skipped %v, %d conviction walks", report.Skipped, report.ConvictionWalks)
			}
			if ok, problems, err := VerifyBackend(b); err != nil || ok != 5 || len(problems) != 0 {
				t.Errorf("VerifyBackend: ok=%d problems=%v err=%v", ok, problems, err)
			}
			identities := func(want int, rule string) {
				t.Helper()
				files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.qckpt"))
				n := 0
				for _, f := range files {
					h, err := VerifyFile(f)
					if err != nil {
						t.Errorf("VerifyFile %s: %v", filepath.Base(f), err)
					}
					if strings.HasPrefix(h.Identity(), rule) {
						n++
					}
				}
				if n != want {
					t.Errorf("%d file(s) read %s, want %d", n, rule, want)
				}
			}
			identities(5, "QCKPT1")

			opt.Dir, opt.Strategy, opt.AnchorEvery = dir, StrategyDelta, 8
			m, err := NewManager(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range fixtureStates()[5:] {
				if _, err := m.Save(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			identities(3, "QCKPT2")
			restoresBitwise(t, "three saves later", b, 7, 7)
			if ok, problems, err := VerifyBackend(b); err != nil || ok != 8 || len(problems) != 0 {
				t.Errorf("VerifyBackend over both rules: ok=%d problems=%v err=%v", ok, problems, err)
			}
			rewriteObject(t, b, snapshotName(5, KindFull), func(data []byte) []byte {
				data[len(data)/2] ^= 0x01
				return data
			})
			if report := restoresBitwise(t, "the new anchor damaged", b, 4, 4); len(report.Skipped) != 3 {
				t.Errorf("skipped %v, want the three new snapshots", report.Skipped)
			}

			dir, b = openFixture(t, name)
			key, _, err := CompactBackend(b, false)
			if err != nil {
				t.Fatal(err)
			}
			h, err := VerifyFile(filepath.Join(dir, key))
			if err != nil || !strings.HasPrefix(h.Identity(), "QCKPT2") {
				t.Errorf("compacted anchor %s: %s, %v", key, h.Identity(), err)
			}
			if report := restoresBitwise(t, "compacted", b, 5, 4); report.Path != key || report.ChainLen != 1 {
				t.Errorf("restored %s over %d snapshot(s), want the compacted anchor %s alone", report.Path, report.ChainLen, key)
			}
		})
	}
}

// TestCloseJoinsThePayloadHash: a manager gives back every pooled buffer it
// took by the time Close returns — the hash of its last payload, which holds
// that payload and the one before, included.
func TestCloseJoinsThePayloadHash(t *testing.T) {
	for _, async := range []bool{false, true} {
		givesBackItsBuffers(t, "a manager from open to Close", func() {
			m, err := NewManager(chunkedOpts(Options{Backend: storage.NewMem(), Strategy: StrategyDelta, AnchorEvery: 3, Async: async}))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range bigSeqStates(5) {
				if _, err := m.Save(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
