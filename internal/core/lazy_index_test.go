package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// eagerIndex is the recovery index as it was before headers were probed on
// demand, kept as the oracle of the lazy one: every header probed up front,
// the parseable ones newest first by name (the order the lazy index tries
// candidates in), and a copy sorted by payload hash whose holders of one
// payload stand oldest first. skipped lists every unparseable header.
func eagerIndex(v *snapshotView) (bySeq []indexEntry, byHash eagerBases, skipped []string, err error) {
	refs, err := listSnapshots(v.b)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, ref := range refs {
		h, err := probeHeader(v.b, ref.key)
		if err != nil {
			skipped = append(skipped, ref.key)
			continue
		}
		bySeq = append(bySeq, indexEntry{ref, h})
	}
	byHash = slices.Clone(bySeq) // refs come oldest first, and the sort is stable
	slices.SortStableFunc(byHash, func(a, b indexEntry) int { return bytes.Compare(a.h.PayloadHash[:], b.h.PayloadHash[:]) })
	slices.Reverse(bySeq)
	return bySeq, byHash, skipped, nil
}

// eagerBases is the eager index sorted by payload hash.
type eagerBases []indexEntry

// baseOf is the newest holder of ent's base payload older than ent, by a
// binary search among the holders of that payload.
func (ix eagerBases) baseOf(ent indexEntry) (indexEntry, error) {
	i := sort.Search(len(ix), func(i int) bool {
		return cmp.Or(bytes.Compare(ix[i].h.PayloadHash[:], ent.h.BaseHash[:]), cmp.Compare(ix[i].seq, ent.seq)) >= 0
	}) // where ent would stand among the holders of its base: right after the one wanted
	if i == 0 || ix[i-1].h.PayloadHash != ent.h.BaseHash {
		return indexEntry{}, fmt.Errorf("%w: delta base %x… missing", ErrCorrupt, string(ent.h.BaseHash[:6]))
	}
	return ix[i-1], nil
}

// chain collects ent, base(ent), base(base(ent)), … to the anchor.
func (ix eagerBases) chain(ent indexEntry) ([]indexEntry, error) {
	chain := []indexEntry{ent}
	for ent.h.Kind.Base() == KindDelta {
		var err error
		if ent, err = ix.baseOf(ent); err != nil {
			return nil, err
		}
		chain = append(chain, ent)
	}
	return chain, nil
}

// eagerLoad is LoadLatestBackendOptions over eagerIndex: the same
// candidates, each chain collected through the hash-sorted copy and then
// resolved and decoded as recovery does.
func eagerLoad(b storage.Backend, opts RestoreOptions) (*TrainingState, LoadReport, error) {
	v := newSnapshotView(b, opts)
	v.manifests = make(map[string]*snapshotObject)
	bySeq, byHash, skipped, err := eagerIndex(v)
	if err != nil {
		return nil, LoadReport{}, err
	}
	for _, ent := range bySeq {
		chain, err := byHash.chain(ent)
		var state *TrainingState
		if err == nil {
			var payload *refBuf
			if payload, err = v.resolvePayload(chain); err == nil {
				state, err = DecodePayload(payload.b)
				payload.release()
			}
		}
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", path.Base(ent.key), err))
			continue
		}
		return state, LoadReport{Path: ent.key, Seq: ent.h.Seq, Step: ent.h.Step, ChainLen: len(chain), Skipped: skipped, LoadCost: v.cost}, nil
	}
	return nil, LoadReport{Skipped: skipped, LoadCost: v.cost}, ErrNoCheckpoint
}

// The store damage FuzzLazyIndexMatchesEager applies, each to a snapshot
// object it picks by position in the listing.
const (
	lazyFlipHeader = iota // one header byte: a bad magic or kind fails the probe, a changed field parses
	lazyTruncate          // cut anywhere, inside the header too
	lazyDelete            // a missing base for what was built on it
	lazyCopy              // the object under another sequence number: a header Seq that disagrees with its name
	lazyMove              // the same, the original deleted
	lazyFlipBody          // one byte past the header: the probe parses, the read fails
	lazyDamageCount
)

// FuzzLazyIndexMatchesEager holds the lazy recovery index to the eager one
// over damaged stores: up to four damages (lazyFlipHeader …) anywhere in a
// store of several anchor chains, one state possibly saved twice, under
// every body layout and worker count. Both must restore the same snapshot —
// Path, Seq, ChainLen — to the same bytes, or both find nothing.
func FuzzLazyIndexMatchesEager(f *testing.F) {
	f.Add(uint64(1), uint8(layoutFixed), uint8(2), uint8(0), []byte{lazyFlipHeader, 1, 0})
	f.Add(uint64(2), uint8(layoutMonolithic), uint8(4), uint8(3), []byte{lazyFlipHeader, 3, 6})
	f.Add(uint64(3), uint8(layoutCDC), uint8(1), uint8(0), []byte{lazyTruncate, 12, 40})
	f.Add(uint64(4), uint8(layoutFixed), uint8(3), uint8(5), []byte{lazyDelete, 4, 0, lazyFlipBody, 12, 9})
	f.Add(uint64(5), uint8(layoutFixed), uint8(2), uint8(0), []byte{lazyCopy, 3, 20})
	f.Add(uint64(6), uint8(layoutMonolithic), uint8(0), uint8(7), []byte{lazyMove, 8, 2, lazyFlipHeader, 0, 8})
	f.Add(uint64(7), uint8(layoutCDC), uint8(5), uint8(2), []byte{lazyFlipHeader, 2, 7, lazyDelete, 1, 0})
	f.Add(uint64(8), uint8(layoutFixed), uint8(2), uint8(0), []byte{lazyFlipBody, 12, 3, lazyFlipBody, 11, 3, lazyTruncate, 10, 2})
	f.Add(uint64(9), uint8(layoutFixed), uint8(1), uint8(4), []byte{lazyCopy, 12, 4, lazyFlipHeader, 5, 60})
	f.Fuzz(func(t *testing.T, seed uint64, layoutSel, every, dup uint8, damage []byte) {
		const n = 12
		states := bigSeqStates(n)
		if seed%2 == 0 {
			states = sparseStates(seed, 4<<10, n, 24)
		}
		if d := int(dup) % n; d > 0 {
			states = append(states[:d+1], states[d:]...) // state d saved twice
		}
		opts := Options{AnchorEvery: 2 + int(every)%5}
		switch int(layoutSel) % layoutLegacy {
		case layoutFixed:
			opts = chunkedOpts(opts)
		case layoutCDC:
			opts = chunkedOpts(opts)
			opts.Chunker = ChunkerCDC
		}
		mem := saveChain(t, opts, states)
		for i := 0; i+2 < len(damage) && i < 12; i += 3 {
			refs, err := listSnapshots(mem)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) == 0 {
				break
			}
			ref, arg := refs[int(damage[i+1])%len(refs)], int(damage[i+2])
			switch int(damage[i]) % lazyDamageCount {
			case lazyFlipHeader:
				rewriteObject(t, mem, ref.key, func(data []byte) []byte {
					if at := arg % headerSize; at < len(data) {
						data[at] ^= 0x40
					}
					return data
				})
			case lazyTruncate:
				rewriteObject(t, mem, ref.key, func(data []byte) []byte { return data[:arg%max(len(data), 1)] })
			case lazyDelete:
				if err := mem.Delete(ref.key); err != nil {
					t.Fatal(err)
				}
			case lazyCopy, lazyMove:
				data, err := mem.Get(ref.key)
				if err != nil {
					t.Fatal(err)
				}
				to := snapshotName(uint64(arg)%uint64(len(states)+2), ref.kind)
				if int(damage[i])%lazyDamageCount == lazyMove && to != ref.key {
					if err := mem.Delete(ref.key); err != nil {
						t.Fatal(err)
					}
				}
				if err := mem.Put(to, data); err != nil {
					t.Fatal(err)
				}
			case lazyFlipBody:
				rewriteObject(t, mem, ref.key, func(data []byte) []byte {
					if len(data) > headerSize {
						data[headerSize+arg%(len(data)-headerSize)] ^= 0x40
					}
					return data
				})
			}
		}

		ropts := RestoreOptions{Workers: int(seed % 3), Prefetch: int(seed % 3)}
		lazy, lr, lerr := LoadLatestBackendOptions(mem, nil, ropts)
		eager, er, eerr := eagerLoad(mem, ropts)
		if !errors.Is(lerr, ErrNoCheckpoint) && lerr != nil || !errors.Is(eerr, ErrNoCheckpoint) && eerr != nil {
			t.Fatalf("lazy: %v, eager: %v; want a restore or ErrNoCheckpoint", lerr, eerr)
		}
		if (lerr == nil) != (eerr == nil) || lr.Path != er.Path || lr.Seq != er.Seq || lr.ChainLen != er.ChainLen {
			t.Fatalf("lazy restored %q seq %d over %d links (%v), eager %q seq %d over %d (%v)\nlazy skipped %q\neager skipped %q",
				lr.Path, lr.Seq, lr.ChainLen, lerr, er.Path, er.Seq, er.ChainLen, eerr, lr.Skipped, er.Skipped)
		}
		if lerr != nil {
			return
		}
		lp, err1 := EncodePayload(lazy)
		ep, err2 := EncodePayload(eager)
		if err1 != nil || err2 != nil || !bytes.Equal(lp, ep) {
			t.Fatalf("seq %d restored to different bytes (%v, %v)", lr.Seq, err1, err2)
		}
		if refs, err := listSnapshots(mem); err != nil || lr.HeadersProbed > len(refs) || lr.HeadersProbed < lr.ChainLen {
			t.Errorf("lazy probed %d headers of %d over a chain of %d (%v)", lr.HeadersProbed, len(refs), lr.ChainLen, err)
		}
	})
}

// TestSkippedListsWhatRecoveryMet pins what LoadReport.Skipped holds now
// that headers are probed on demand: a candidate that failed and why, and a
// header that would not parse only where recovery needed it — as a
// candidate, or on a chain's way down to its base. A bad header older than
// every chain recovery walked is not probed, so not listed; VerifyBackend,
// which probes everything, still names it. HeadersProbed counts each header
// once, however many candidates pass it.
func TestSkippedListsWhatRecoveryMet(t *testing.T) {
	badMagic := func(data []byte) []byte { data[0] ^= 0x40; return data }
	badBody := func(data []byte) []byte { data[len(data)-1] ^= 0x40; return data }
	three := bigSeqStates(12) // anchors at 0, 4 and 8
	twice := bigSeqStates(6)
	twice = append(twice[:3], twice[2:]...) // state 2 saved at seq 2 and 3
	for _, tc := range []struct {
		name     string
		states   []*TrainingState
		every    int
		damage   uint64
		edit     func([]byte) []byte
		seq      uint64
		chainLen int
		skipped  []string // exact entries, or a prefix ending in ':'
		probed   int
		problems int // VerifyBackend's
	}{
		{"clean", three, 4, 99, nil, 11, 4, nil, 4, 0},
		{"bad header below the restored chain", three, 4, 1, badMagic, 11, 4, nil, 4, 3}, // seq 1 and the two it cuts off
		{"bad header the walk passes", twice, 16, 3, badMagic, 6, 6, []string{snapshotName(3, KindDelta)}, 7, 1},
		{"bad newest header", three, 4, 11, badMagic, 10, 3, []string{snapshotName(11, KindDelta)}, 4, 1},
		{"failed candidate, probes reused", three, 4, 11, badBody, 10, 3, []string{snapshotName(11, KindDelta) + ":"}, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := saveChain(t, chunkedOpts(Options{AnchorEvery: tc.every}), tc.states)
			if tc.edit != nil {
				kind := KindDelta
				if int(tc.damage)%tc.every == 0 {
					kind = KindFull
				}
				rewriteObject(t, mem, snapshotName(tc.damage, kind), tc.edit)
			}
			got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 2})
			if err != nil || report.Seq != tc.seq || report.ChainLen != tc.chainLen || !got.Equal(tc.states[tc.seq]) {
				t.Fatalf("restored seq %d over %d links (%v), want seq %d over %d, bitwise", report.Seq, report.ChainLen, err, tc.seq, tc.chainLen)
			}
			ok := len(report.Skipped) == len(tc.skipped)
			for i := 0; ok && i < len(tc.skipped); i++ {
				want := tc.skipped[i]
				ok = report.Skipped[i] == want || strings.HasSuffix(want, ":") && strings.HasPrefix(report.Skipped[i], want)
			}
			if !ok {
				t.Errorf("Skipped = %q, want %q", report.Skipped, tc.skipped)
			}
			if report.HeadersProbed != tc.probed {
				t.Errorf("probed %d headers, want %d", report.HeadersProbed, tc.probed)
			}
			if _, problems, err := VerifyBackend(mem); err != nil || len(problems) != tc.problems {
				t.Errorf("VerifyBackend: %q (%v), want %d problems", problems, err, tc.problems)
			}
		})
	}
}
