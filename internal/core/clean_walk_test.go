package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// A clean recovery hashes one thing per candidate, the target's payload
// (recovery.go, DESIGN.md §4 *Verification on the way*). The tests here hold
// the edges of that: who still checks every chunk where it reads it, what a
// clean walk that failed does next, and which header the one hash is
// compared with.

// TestCheckedReadersRefuseAFrameThatMissesItsAddress: only recovery's clean
// walk reads chunks unchecked. One chunk of a store's only snapshot is given
// a frame that misses its address — other content, or the chunk's own piece
// framed the other way, which unframes to the right bytes — and
// VerifyBackend and VerifyFile refuse it both times, naming the chunk.
// Recovery, and CompactBackend, which compacts what recovery returns,
// refuse the first and restore through the second: the payload is the one
// its header promises, bitwise, and the compacted store no longer names
// the chunk.
func TestCheckedReadersRefuseAFrameThatMissesItsAddress(t *testing.T) {
	for _, tc := range []struct {
		name     string
		damage   int
		restores bool
	}{
		{"other content", damageChunkOther, false},
		{"same piece, other frame", damageChunkReframe, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			state := sparseStates(5, 4<<10, 1, 0)[0]
			m, err := NewManager(chunkedOpts(Options{Dir: dir, Strategy: StrategyFull}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Save(state); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			b := dirStore(t, dir)
			name := snapshotName(0, KindFull)
			chunk, samePiece := damageChunk(t, b, name, tc.damage, 3)
			if chunk == "" || samePiece != tc.restores {
				t.Fatalf("damaged chunk %q, same piece %v", chunk, samePiece)
			}
			named := "chunk " + chunk + " corrupt in backend"

			if ok, problems, err := VerifyBackend(b); err != nil || ok != 0 || len(problems) != 1 || !strings.Contains(problems[0], named) {
				t.Errorf("VerifyBackend: ok=%d problems=%v err=%v, want the chunk named", ok, problems, err)
			}
			if _, err := VerifyFile(filepath.Join(dir, name)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), named) {
				t.Errorf("VerifyFile: %v, want the chunk named", err)
			}

			got, report, err := LoadLatestBackendOptions(b, nil, RestoreOptions{Workers: 2})
			key, _, cerr := CompactBackend(b, true)
			if !tc.restores {
				if !errors.Is(err, ErrNoCheckpoint) || len(report.Skipped) != 1 || !strings.Contains(report.Skipped[0], named) || report.ConvictionWalks != 1 {
					t.Errorf("recovery: %v, skipped %v after %d conviction walks; want the chunk named by the one walk", err, report.Skipped, report.ConvictionWalks)
				}
				if !errors.Is(cerr, ErrNoCheckpoint) {
					t.Errorf("CompactBackend: %v, want ErrNoCheckpoint", cerr)
				}
				return
			}
			if err != nil || !got.Equal(state) || len(report.Skipped) != 0 || report.ConvictionWalks != 0 {
				t.Fatalf("recovery through a re-framed chunk: %v, skipped %v, %d conviction walks; want the saved state", err, report.Skipped, report.ConvictionWalks)
			}
			if cerr != nil {
				t.Fatalf("CompactBackend: %v", cerr)
			}
			if h, err := VerifyFile(filepath.Join(dir, key)); err != nil || h.Kind != KindFull {
				t.Errorf("compacted snapshot: %+v, %v", h, err)
			}
			if ok, problems, err := VerifyBackend(b); err != nil || ok != 1 || len(problems) != 0 {
				t.Errorf("after compaction: ok=%d problems=%v err=%v, want one sound snapshot", ok, problems, err)
			}
		})
	}
}

// TestFailedCleanWalkIsWalkedOnceMoreAndRemembered: the second of two chains
// has a damaged anchor chunk. The clean walk of the newest snapshot dies on
// the target's hash (or wherever the garbage first trips a length); exactly
// one walk with every check on follows and its verdict — the chunk, by
// address — is what Skipped says of that snapshot and, from the memo, of
// every other snapshot on that anchor: resolving those costs nothing at all.
// Recovery then returns the newest snapshot of the chain before, bitwise.
func TestFailedCleanWalkIsWalkedOnceMoreAndRemembered(t *testing.T) {
	const every, n = 4, 8
	states := sparseStates(3, 4<<10, n, 24)
	for _, damage := range []int{damageChunkFlipRaw, damageChunkOther, damageChunkTruncate, damageChunkMissing} {
		mem := saveChain(t, chunkedOpts(Options{AnchorEvery: every}), states)
		// Chunk 0 holds the parameters the steps moved: the one chunk the
		// second anchor does not share with the first.
		chunk, _ := damageChunk(t, mem, snapshotName(every, KindFull), damage, 0)
		named := "chunk " + chunk + " corrupt in backend"
		if damage == damageChunkMissing {
			named = "chunk not found: " + chunk
		}

		v := newSnapshotView(mem, RestoreOptions{Workers: 2})
		v.manifests = make(map[string]*snapshotObject)
		bySeq, byHash, _, err := v.buildIndex()
		if err != nil {
			t.Fatal(err)
		}
		_, _, first := v.resolvePayload(bySeq[0], byHash)
		if !errors.Is(first, ErrCorrupt) || !strings.Contains(first.Error(), named) || v.cost.ConvictionWalks != 1 {
			t.Fatalf("damage %d: newest snapshot: %v after %d conviction walks, want %q from the one walk", damage, first, v.cost.ConvictionWalks, named)
		}
		spent := v.cost
		for _, ent := range bySeq[1:every] { // the rest of the chain on that anchor, and the anchor
			if _, _, err := v.resolvePayload(ent, byHash); err != first {
				t.Errorf("damage %d: seq %d: %v, want the remembered verdict", damage, ent.h.Seq, err)
			}
		}
		if v.cost != spent {
			t.Errorf("damage %d: refusing snapshots on a convicted anchor cost %+v on top of %+v", damage, v.cost, spent)
		}

		for _, workers := range []int{0, 2} {
			got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: workers})
			if err != nil || report.Seq != every-1 || !got.Equal(states[every-1]) {
				t.Fatalf("damage %d, workers %d: restored seq %d, %v; want seq %d bitwise", damage, workers, report.Seq, err, every-1)
			}
			if len(report.Skipped) != every || report.ConvictionWalks != 1 {
				t.Fatalf("damage %d, workers %d: skipped %v after %d conviction walks, want %d and 1", damage, workers, report.Skipped, report.ConvictionWalks, every)
			}
			for _, s := range report.Skipped {
				if !strings.Contains(s, named) {
					t.Errorf("damage %d, workers %d: Skipped says %q, want %q", damage, workers, s, named)
				}
			}
		}
	}
}

// probeLiar answers the header probe of one snapshot — the range read
// buildIndex makes, which no hash covers — with another PayloadHash than the
// object holds; a whole Get returns the object as stored.
type probeLiar struct {
	storage.Backend
	key string
	lie [32]byte
}

func (p *probeLiar) GetRange(key string, off, n int64) ([]byte, error) {
	data, err := storage.GetRange(p.Backend, key, off, n)
	if err == nil && key == p.key && off == 0 && len(data) >= headerSize {
		copy(data[55:87], p.lie[:]) // where parseHeaderBytes reads PayloadHash
	}
	return data, err
}

// TestHeaderChangedBetweenProbeAndRead: the hash a clean walk trusts is the
// one in the header that passed the whole-file hash. A backend whose range
// read and whole read disagree on the newest snapshot's PayloadHash (the
// probe answers with the hash of the payload below it) gets that candidate
// refused in those words, by recovery and by VerifyBackend, and recovery
// falls back.
func TestHeaderChangedBetweenProbeAndRead(t *testing.T) {
	states := bigSeqStates(5)
	for name, opts := range map[string]Options{"monolithic": {AnchorEvery: 8}, "chunked": chunkedOpts(Options{AnchorEvery: 8})} {
		t.Run(name, func(t *testing.T) {
			mem := saveChain(t, opts, states)
			below, err := EncodePayload(states[3])
			if err != nil {
				t.Fatal(err)
			}
			liar := &probeLiar{Backend: mem, key: snapshotName(4, KindDelta), lie: PayloadHash(below)}
			got, report, err := LoadLatestBackendOptions(liar, nil, RestoreOptions{Workers: 2})
			if err != nil || report.Seq != 3 || !got.Equal(states[3]) {
				t.Fatalf("restored seq %d, %v; want seq 3 bitwise", report.Seq, err)
			}
			if len(report.Skipped) != 1 || !strings.HasPrefix(report.Skipped[0], liar.key) || !strings.Contains(report.Skipped[0], "header changed between probe and read") {
				t.Errorf("Skipped = %v, want the newest snapshot refused for its header", report.Skipped)
			}
			ok, problems, err := VerifyBackend(liar)
			if err != nil || ok != 4 || len(problems) != 1 || !strings.Contains(problems[0], "header changed between probe and read") {
				t.Errorf("VerifyBackend: ok=%d problems=%v err=%v, want the newest snapshot refused for its header", ok, problems, err)
			}
		})
	}
}

// TestCleanWalkBesideItsWarmers is for the race detector: restorers with
// helpers and chain warmers read one store's chunks unchecked, a damaged link
// sends each through a conviction walk (checked reads of the same cached
// frames, the same warmers), and every one must come back with the snapshot
// below the damage, bitwise.
func TestCleanWalkBesideItsWarmers(t *testing.T) {
	const links, bad = 12, 9
	states := sparseStates(9, 8<<10, links, 24)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: links}), states)
	want, err := EncodePayload(states[bad-1])
	if err != nil {
		t.Fatal(err)
	}
	damageChunk(t, mem, snapshotName(bad, KindDelta), damageChunkOther, 0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 3, Prefetch: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if have, _ := EncodePayload(got); report.Seq != bad-1 || report.ConvictionWalks != 1 || !bytes.Equal(have, want) {
				t.Errorf("restored seq %d after %d conviction walks, want seq %d bitwise after one", report.Seq, report.ConvictionWalks, bad-1)
			}
		}()
	}
	wg.Wait()
}
