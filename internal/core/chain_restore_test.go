package core

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/storage"
)

// referenceApplyDelta is the materialising delta apply: take the whole
// delta body, copy it, XOR the base over it. The tests below hold the
// in-place applier to it.
func referenceApplyDelta(base, delta []byte) ([]byte, error) {
	if len(delta) < 16 {
		return nil, fmt.Errorf("delta too short (%d bytes)", len(delta))
	}
	curLen := binary.LittleEndian.Uint64(delta)
	baseLen := binary.LittleEndian.Uint64(delta[8:])
	if baseLen != uint64(len(base)) {
		return nil, fmt.Errorf("delta expects base of %d bytes, got %d", baseLen, len(base))
	}
	body := delta[16:]
	if uint64(len(body)) != curLen {
		return nil, fmt.Errorf("delta body %d bytes, header says %d", len(body), curLen)
	}
	out := make([]byte, curLen)
	copy(out, body)
	subtle.XORBytes(out, out, base) // over their common length
	return out, nil
}

// Layouts a delta body can reach applyLink in.
const (
	layoutMonolithic = iota // KindDelta: the body is one piece
	layoutFixed             // CHUNKS2: fixed-size self-framed chunks
	layoutCDC               // CHUNKS3: content-defined self-framed chunks
	layoutLegacy            // CHUNKS1: a manifest magic no reader knows any more
	layoutCount
)

// Ways the fuzzer damages a delta.
const (
	mangleNone     = iota
	mangleBaseLen  // header names another base length
	mangleCurLen   // header disagrees with the body length
	mangleShort    // body shorter than its own header
	mangleDropTail // manifest loses its last chunk: pieces no longer add up
	mangleCount
)

// putDeltaSnapshot stores delta in b as the snapshot object a manager
// would write for the given layout — chunks first, then the manifest — and
// returns its key. pieceLen sizes the chunks; dropTail leaves the last
// chunk out of the manifest.
func putDeltaSnapshot(t testing.TB, b storage.Backend, delta []byte, layout, pieceLen int, dropTail bool) string {
	t.Helper()
	h := Header{Kind: KindDelta, Seq: 1}
	body := delta
	if layout != layoutMonolithic {
		h.Kind = KindDeltaChunked
		cs := storage.NewChunkStore(storage.WithPrefix(b, ChunkPrefix))
		p := fixedParams(pieceLen)
		if layout == layoutCDC {
			p = cdcParamsFor(4 * pieceLen)
		}
		pieces := cdcPieces(delta, appendCutpoints(nil, delta, p))
		var addrs []string
		for _, piece := range pieces {
			frame, err := appendChunkFrame(nil, piece)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := cs.Put(frame)
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, addr)
		}
		if dropTail && len(addrs) > 0 {
			addrs = addrs[:len(addrs)-1]
		}
		body = appendChunkManifest(nil, len(delta), p, addrs)
		if layout == layoutLegacy {
			body = legacyManifest(body)
		}
	}
	data, err := EncodeSnapshotFile(h, body)
	if err != nil {
		t.Fatal(err)
	}
	key := snapshotName(h.Seq, h.Kind)
	if err := b.Put(key, data); err != nil {
		t.Fatal(err)
	}
	return key
}

// FuzzDeltaApplyInPlace holds snapshotView.applyLink — manifest walk,
// distinct-address fetch, zero-piece skip, in-place XOR, in-place resize —
// to referenceApplyDelta over random bases, sparse to dense edits, grown
// and shrunk tails, every body layout, chunk sizes small enough that the
// 16-byte header spans pieces, and payload buffers with dirty spare
// capacity. A delta whose header the reference rejects must be rejected
// with the payload untouched, and so must any delta behind a CHUNKS1
// manifest.
func FuzzDeltaApplyInPlace(f *testing.F) {
	f.Add(uint64(1), uint16(4096), uint16(4096), uint8(1), uint8(layoutFixed), uint8(64), uint8(mangleNone))
	f.Add(uint64(2), uint16(3000), uint16(5000), uint8(255), uint8(layoutCDC), uint8(16), uint8(mangleNone))
	f.Add(uint64(3), uint16(5000), uint16(100), uint8(40), uint8(layoutLegacy), uint8(5), uint8(mangleNone))
	f.Add(uint64(4), uint16(900), uint16(900), uint8(0), uint8(layoutMonolithic), uint8(1), uint8(mangleNone))
	f.Add(uint64(5), uint16(0), uint16(0), uint8(0), uint8(layoutFixed), uint8(3), uint8(mangleNone))
	f.Add(uint64(6), uint16(2048), uint16(2048), uint8(3), uint8(layoutFixed), uint8(7), uint8(mangleBaseLen))
	f.Add(uint64(7), uint16(2048), uint16(1024), uint8(3), uint8(layoutCDC), uint8(32), uint8(mangleCurLen))
	f.Add(uint64(8), uint16(64), uint16(64), uint8(9), uint8(layoutMonolithic), uint8(1), uint8(mangleShort))
	f.Add(uint64(9), uint16(4000), uint16(4100), uint8(2), uint8(layoutLegacy), uint8(100), uint8(mangleDropTail))
	f.Fuzz(func(t *testing.T, seed uint64, baseLen, curLen uint16, density, layoutSel, pieceLen, mangleSel uint8) {
		layout, mangle := int(layoutSel)%layoutCount, int(mangleSel)%mangleCount
		r := rng.New(seed)
		fill := func(p []byte) {
			for i := range p {
				p[i] = byte(r.Uint64())
			}
		}
		base := make([]byte, baseLen)
		fill(base)
		cur := make([]byte, curLen)
		fill(cur[copy(cur, base):]) // a grown tail is fresh bytes
		if density == 255 {
			fill(cur)
		} else if len(cur) > 0 {
			for edits := int(density) * len(cur) / 1024; edits >= 0; edits-- {
				cur[r.Intn(len(cur))] ^= byte(1 + r.Intn(255))
			}
		}
		delta := AppendDelta(nil, base, cur)
		switch mangle {
		case mangleBaseLen:
			binary.LittleEndian.PutUint64(delta[8:], uint64(baseLen)+1+uint64(r.Intn(9)))
		case mangleCurLen:
			binary.LittleEndian.PutUint64(delta, uint64(curLen)+1+uint64(r.Intn(9)))
		case mangleShort:
			delta = delta[:r.Intn(16)]
		}
		want, wantErr := referenceApplyDelta(base, delta)
		if mangle == mangleNone && (wantErr != nil || !bytes.Equal(want, cur)) {
			t.Fatalf("reference apply does not round-trip: %v", wantErr)
		}

		mem := storage.NewMem()
		dropTail := mangle == mangleDropTail && layout != layoutMonolithic
		key := putDeltaSnapshot(t, mem, delta, layout, 1+int(pieceLen), dropTail)
		// The running payload as a resolver holds it mid-chain: base, with
		// whatever a longer ancestor left in the spare capacity behind it.
		buf := bytes.Repeat([]byte{0xA5}, len(base)+int(seed%3)*int(pieceLen))
		payload := buf[:copy(buf, base)]
		v := newSnapshotView(mem, RestoreOptions{Workers: int(seed % 4)})
		held := &refBuf{b: payload} // a cur past buf's capacity trades it for a pooled buffer
		h, err := probeHeader(mem, key)
		if err != nil {
			t.Fatal(err)
		}
		err = v.applyLink(indexEntry{snapshotRef{key: key}, h}, held)
		got := held.b

		switch {
		case layout == layoutLegacy:
			if !errors.Is(err, ErrCorrupt) || !bytes.Equal(payload, base) {
				t.Fatalf("CHUNKS1 manifest: err = %v, want ErrCorrupt and the payload untouched", err)
			}
		case dropTail:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest missing its last chunk: err = %v, want ErrCorrupt", err)
			}
		case wantErr != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("reference rejects the delta (%v); in-place apply returned %v", wantErr, err)
			}
			if !bytes.Equal(payload, base) {
				t.Fatal("a delta rejected on its header changed the payload")
			}
		case err != nil:
			t.Fatalf("in-place apply failed on a sound delta: %v", err)
		case !bytes.Equal(got, want):
			t.Fatalf("in-place result differs from the reference (base %d, cur %d, layout %d, piece %d)", baseLen, curLen, layout, 1+int(pieceLen))
		}
	})
}

// copyBackend returns a Mem holding every object of src.
func copyBackend(t testing.TB, src storage.Backend) *storage.Mem {
	t.Helper()
	dst := storage.NewMem()
	keys, err := src.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		data, err := src.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// saveChain saves states through a delta manager on a fresh Mem and
// returns the store. opts carries the chunking under test.
func saveChain(t testing.TB, opts Options, states []*TrainingState) *storage.Mem {
	t.Helper()
	mem := storage.NewMem()
	opts.Backend, opts.Strategy = mem, StrategyDelta
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return mem
}

// putSnapshot stores body under header h at key, as a snapshot object.
func putSnapshot(t *testing.T, b storage.Backend, key string, h Header, body []byte) {
	t.Helper()
	data, err := EncodeSnapshotFile(h, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, data); err != nil {
		t.Fatal(err)
	}
}

// getSnapshot reads the snapshot object at key, checks its file hash and
// returns its header and inflated body: the manifest text of a chunked kind,
// the payload or delta bytes of a monolithic one.
func getSnapshot(t *testing.T, b storage.Backend, key string) (Header, []byte) {
	t.Helper()
	data, err := b.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	h, comp, err := checkSnapshotFile(data)
	if err != nil {
		t.Fatal(err)
	}
	body, err := inflate(nil, comp, -1)
	if err != nil {
		t.Fatal(err)
	}
	return h, body
}

// substituteDelta replaces the delta snapshot seq in b with one that passes
// every content check — whole-file hash, chunk addresses, delta header — and
// still carries the original header's PayloadHash, but whose body mutate has
// changed: a wrong link only a payload hash can see.
func substituteDelta(t *testing.T, b storage.Backend, seq uint64, mutate func(delta []byte) []byte) {
	t.Helper()
	key := snapshotName(seq, KindDelta)
	v := newSnapshotView(b, RestoreOptions{})
	o, body, err := v.readBody(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, delta := o.h, slices.Clone(body.b)
	body.release()
	if h.Kind.Base() != KindDelta || len(delta) <= deltaHeaderLen {
		t.Fatalf("seq %d is not a usable delta (%v, %d bytes)", seq, h.Kind, len(delta))
	}
	delta = mutate(delta)
	if h.Kind.Chunked() {
		delta = buildChunkedBody(t, v.cs, delta, MinChunkBytes)
	}
	putSnapshot(t, b, key, h, delta)
}

// substituteWrongDelta makes link seq XOR one bit differently. Every later
// link still applies; only a payload hash — the link's own, or the
// target's — can tell.
func substituteWrongDelta(t *testing.T, b storage.Backend, seq uint64) {
	t.Helper()
	substituteDelta(t, b, seq, func(delta []byte) []byte {
		delta[deltaHeaderLen+(len(delta)-deltaHeaderLen)/2] ^= 0x10
		return delta
	})
}

// substituteLongerDelta makes link seq reconstruct a payload three bytes
// longer than the one its header promises (its own delta header agrees with
// its body, so it applies). A walk that does not hash link seq is stopped
// by the next link's baseLen check, one link above the wrong one.
func substituteLongerDelta(t *testing.T, b storage.Backend, seq uint64) {
	t.Helper()
	substituteDelta(t, b, seq, func(delta []byte) []byte {
		delta = append(delta, 0xDE, 0xAD, 0x01)
		binary.LittleEndian.PutUint64(delta, uint64(len(delta)-deltaHeaderLen))
		return delta
	})
}

// TestWrongLinkFallsBackToOlderSnapshot is the fault sweep for in-place
// chains: at every position of a 16-link chain substitute a content-valid
// but wrong delta, damage only the link's PayloadHash check can see (and it
// is made to a buffer the next candidate must not inherit). Recovery must
// blame that link in every snapshot it skips, from the newest down to the
// bad one, and return the one just below it, bitwise, under any worker
// count. The clean path hashes a chain at its target only, so the walk
// that meets the damage is stopped by the target's hash — or, for a wrong
// link that also changes the payload's length, by the next link's baseLen
// check — and it is the conviction walk that must put the blame where it
// belongs, once: the candidates below the newest are refused from the memo.
func TestWrongLinkFallsBackToOlderSnapshot(t *testing.T) {
	const links = 16
	for name, tc := range map[string]struct {
		opts   Options
		states []*TrainingState
	}{
		"chunked":    {chunkedOpts(Options{AnchorEvery: links}), bigSeqStates(links)},
		"monolithic": {Options{AnchorEvery: links}, seqStates(links)},
	} {
		t.Run(name, func(t *testing.T) {
			clean := saveChain(t, tc.opts, tc.states)
			payload, err := EncodePayload(tc.states[links-1])
			if err != nil {
				t.Fatal(err)
			}
			for damageName, damage := range map[string]func(*testing.T, storage.Backend, uint64){
				"wrong bit": substituteWrongDelta, "wrong length": substituteLongerDelta,
			} {
				for bad := 1; bad < links; bad++ {
					mem := copyBackend(t, clean)
					damage(t, mem, uint64(bad))
					for _, workers := range []int{0, 1, 2} {
						got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: workers})
						if err != nil {
							t.Fatalf("%s: bad link %d, workers %d: %v", damageName, bad, workers, err)
						}
						if report.Seq != uint64(bad-1) || report.ChainLen != bad || !got.Equal(tc.states[bad-1]) {
							t.Fatalf("bad link %d, workers %d: restored seq %d (chain %d), want seq %d bitwise",
								bad, workers, report.Seq, report.ChainLen, bad-1)
						}
						if len(report.Skipped) != links-bad {
							t.Fatalf("bad link %d, workers %d: skipped %d snapshots, want %d: %v",
								bad, workers, len(report.Skipped), links-bad, report.Skipped)
						}
						for i, s := range report.Skipped {
							if want := snapshotName(uint64(links-1-i), KindDelta); !strings.HasPrefix(s, want) || !strings.Contains(s, fmt.Sprintf("at seq %d", bad)) {
								t.Fatalf("bad link %d: Skipped[%d] = %q, want %s blamed on seq %d", bad, i, s, want, bad)
							}
						}
						if report.ConvictionWalks != 1 {
							t.Fatalf("bad link %d, workers %d: %d conviction walks, want the one that names the link", bad, workers, report.ConvictionWalks)
						}
						// The fallback's ledger, where the payload dwarfs the
						// files: the newest candidate's walk (target), the
						// conviction walk (anchor, its frames, 8 links) and the
						// walk that succeeds (target) — not eight candidates each
						// hashing their way up to the bad link (≈ 83 payloads).
						if name == "chunked" && bad == links/2 && report.BytesHashed > int64(14*len(payload)) {
							t.Fatalf("bad link %d, workers %d: %d bytes hashed, more than 14 payloads of %d: later candidates are not refused from the memo",
								bad, workers, report.BytesHashed, len(payload))
						}
					}
				}
			}
		})
	}
}

// TestVerifyBackendNamesTheBrokenLink: VerifyBackend walks each chain once,
// forward. With a wrong link k in one of three chains it must report
// exactly that chain's links >= k, each naming seq k, and pass everything
// else.
func TestVerifyBackendNamesTheBrokenLink(t *testing.T) {
	const every, n, bad = 6, 18, 9 // chains 0–5, 6–11, 12–17; link 9 is wrong
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: every}), bigSeqStates(n))
	if ok, problems, err := VerifyBackend(mem); err != nil || ok != n || len(problems) != 0 {
		t.Fatalf("clean store: ok=%d problems=%v err=%v", ok, problems, err)
	}
	substituteWrongDelta(t, mem, bad)
	ok, problems, err := VerifyBackend(mem)
	if err != nil {
		t.Fatal(err)
	}
	wantBroken := []uint64{11, 10, 9} // newest first, like the index
	if ok != n-len(wantBroken) || len(problems) != len(wantBroken) {
		t.Fatalf("ok=%d problems=%v, want %d ok and links %v broken", ok, problems, n-len(wantBroken), wantBroken)
	}
	for i, seq := range wantBroken {
		if !strings.HasPrefix(problems[i], snapshotName(seq, KindDelta)) || !strings.Contains(problems[i], fmt.Sprintf("at seq %d", bad)) {
			t.Errorf("problems[%d] = %q, want snapshot %d blamed on seq %d", i, problems[i], seq, bad)
		}
	}
}

// TestVerifyBackendBranchingChain: two deltas recorded against the same
// base (a run resumed from an older snapshot and saved again) fork the
// chain; the in-place walk must verify both branches from one base.
func TestVerifyBackendBranchingChain(t *testing.T) {
	states := bigSeqStates(4)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states[:3])
	// Fork: a second delta against seq 1's payload, numbered past the tip.
	base, err := EncodePayload(states[1])
	if err != nil {
		t.Fatal(err)
	}
	fork, err := EncodePayload(states[3])
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Kind: KindDelta, Seq: 3, Step: 3, BaseHash: PayloadHash(base), PayloadHash: PayloadHash(fork)}
	data, err := EncodeSnapshotFile(h, AppendDelta(nil, base, fork))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(snapshotName(3, KindDelta), data); err != nil {
		t.Fatal(err)
	}
	if ok, problems, err := VerifyBackend(mem); err != nil || ok != 4 || len(problems) != 0 {
		t.Fatalf("forked chain: ok=%d problems=%v err=%v", ok, problems, err)
	}
	got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	if err != nil || report.Seq != 3 || !got.Equal(states[3]) {
		t.Fatalf("fork tip: seq %d err %v", report.Seq, err)
	}
}

// TestRepeatedStateDoesNotCutTheChain saves an unchanged state three times
// in a row. The repeats are deltas whose payload is their own base, and
// three snapshots hold one payload hash: a base looked up by hash alone
// resolves the first repeat to itself (or to a newer twin), and that
// snapshot and every later one of the chain are lost. baseOf looks only
// below the delta it resolves.
func TestRepeatedStateDoesNotCutTheChain(t *testing.T) {
	s := bigSeqStates(3)
	saved := []*TrainingState{s[0], s[1], s[1], s[1], s[2]}
	for name, opts := range map[string]Options{
		"monolithic": {AnchorEvery: 8},
		"chunked":    chunkedOpts(Options{AnchorEvery: 8}),
	} {
		t.Run(name, func(t *testing.T) {
			mem := saveChain(t, opts, saved)
			got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if report.Seq != 4 || report.ChainLen != len(saved) || len(report.Skipped) != 0 || !got.Equal(s[2]) {
				t.Fatalf("restored seq %d over a chain of %d, skipped %v; want seq 4 over %d, bitwise", report.Seq, report.ChainLen, report.Skipped, len(saved))
			}
			if ok, problems, err := VerifyBackend(mem); err != nil || ok != len(saved) || len(problems) != 0 {
				t.Fatalf("verify: ok=%d problems=%v err=%v, want %d ok", ok, problems, err, len(saved))
			}
		})
	}
}

// TestDeltasNamingEachOtherAreOrphans: no chain can loop, whatever the
// headers say. Two deltas that name each other's payload as their base, and
// one that names its own, have no base below them: recovery and
// VerifyBackend say "base missing" for each and return.
func TestDeltasNamingEachOtherAreOrphans(t *testing.T) {
	mem := storage.NewMem()
	a, b, c := PayloadHash([]byte("a")), PayloadHash([]byte("b")), PayloadHash([]byte("c"))
	for _, h := range []Header{
		{Kind: KindDelta, Seq: 1, BaseHash: b, PayloadHash: a},
		{Kind: KindDelta, Seq: 2, BaseHash: a, PayloadHash: b},
		{Kind: KindDelta, Seq: 3, BaseHash: c, PayloadHash: c},
	} {
		putSnapshot(t, mem, snapshotName(h.Seq, h.Kind), h, AppendDelta(nil, nil, []byte("x")))
	}
	_, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
	ok, problems, verr := VerifyBackend(mem)
	if !errors.Is(err, ErrNoCheckpoint) || verr != nil || ok != 0 {
		t.Fatalf("restore err = %v, verify ok=%d err=%v; want ErrNoCheckpoint and nothing sound", err, ok, verr)
	}
	for _, said := range [][]string{report.Skipped, problems} {
		if len(said) != 3 {
			t.Fatalf("%d verdicts, want one per snapshot: %v", len(said), said)
		}
		for i, s := range said { // newest first
			if !strings.HasPrefix(s, snapshotName(uint64(3-i), KindDelta)) || !strings.Contains(s, "missing") {
				t.Errorf("verdict %d = %q, want snapshot %d with its base missing", i, s, 3-i)
			}
		}
	}
}

// Ways FuzzEndsOnlyMatchesPerLink damages a chain: the first six hit a link's
// snapshot object (or, for a flipped byte, one of its chunks), the rest one
// chunk of any snapshot of the chain, the anchor included.
const (
	damageNone      = iota
	damageWrongBit  // content-valid delta that XORs one bit differently
	damageLonger    // content-valid delta whose payload is three bytes longer
	damageFlipByte  // one stored byte flipped: a chunk of the link, or its file
	damageTruncate  // the link's snapshot object cut short
	damageSwapLinks // two links keep their headers and trade bodies

	damageChunkFlipRaw   // one byte flipped in a chunk stored raw
	damageChunkFlipFlate // one byte flipped in a chunk stored compressed
	damageChunkTruncate  // a chunk's frame cut short
	damageChunkMissing   // a chunk deleted
	damageChunkSwap      // two chunk files trade contents
	damageChunkOther     // a valid frame of other content at the chunk's address
	damageChunkReframe   // the chunk's own piece, framed the other way (raw ↔ flate)
	damageCount
)

// unframed returns a copy of the piece frame holds, nil if it holds none.
func unframed(frame []byte) []byte {
	piece, scratch, err := decodeChunkFrame(frame, MaxChunkBytes)
	if err != nil {
		return nil
	}
	piece = bytes.Clone(piece)
	if scratch != nil {
		putScratch(scratch)
	}
	return piece
}

// damageChunk does damage to one chunk that the snapshot at snapKey names —
// one framed raw or compressed when the damage asks for that and the
// snapshot has one — and returns the chunk's address and whether the frame
// now stored there, though not the one that was, still unframes to the same
// piece. A monolithic snapshot names no chunk: addr is "".
func damageChunk(t *testing.T, b storage.Backend, snapKey string, damage int, arg uint16) (addr string, samePiece bool) {
	t.Helper()
	addrs, err := manifestAddrs(b, snapKey)
	if err != nil {
		t.Fatal(err)
	} else if len(addrs) == 0 {
		return "", false
	}
	get := func(key string) []byte {
		data, err := b.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	addr = addrs[int(arg)%len(addrs)]
	if want, picky := byte(chunkFrameRaw), damage == damageChunkFlipRaw || damage == damageChunkFlipFlate; picky {
		if damage == damageChunkFlipFlate {
			want = chunkFrameFlate
		}
		for i := range addrs {
			if a := addrs[(int(arg)+i)%len(addrs)]; get(ChunkKey(a))[0] == want {
				addr = a
				break
			}
		}
	}
	key := ChunkKey(addr)
	frame := get(key)
	piece := unframed(frame)
	put := func(key string, data []byte) {
		if err := b.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	header := func(flag byte) []byte {
		return binary.LittleEndian.AppendUint32([]byte{flag}, uint32(len(piece)))
	}
	switch damage {
	case damageChunkFlipRaw, damageChunkFlipFlate:
		edited := bytes.Clone(frame)
		edited[int(arg)%len(edited)] ^= 0x40
		put(key, edited)
	case damageChunkTruncate:
		put(key, frame[:int(arg)%len(frame)])
	case damageChunkMissing:
		if err := b.Delete(key); err != nil {
			t.Fatal(err)
		}
		return addr, false
	case damageChunkSwap:
		all, err := b.List(ChunkPrefix + "/")
		if err != nil {
			t.Fatal(err)
		}
		other := all[int(arg/7)%len(all)]
		put(key, get(other))
		put(other, frame)
	case damageChunkOther:
		wrong := bytes.Clone(piece)
		wrong[int(arg)%len(wrong)] ^= 0x04
		other, err := appendChunkFrame(nil, wrong)
		if err != nil {
			t.Fatal(err)
		}
		put(key, other)
	case damageChunkReframe:
		other := append(header(chunkFrameRaw), piece...)
		if frame[0] == chunkFrameRaw {
			if other, err = compressAppend(header(chunkFrameFlate), piece); err != nil {
				t.Fatal(err)
			}
		}
		put(key, other)
	}
	now := get(key)
	return addr, !bytes.Equal(now, frame) && bytes.Equal(unframed(now), piece)
}

// swapLinkBodies makes the snapshots at seqs i and j trade bodies — delta
// bytes or chunk manifests — under their own headers.
func swapLinkBodies(t *testing.T, b storage.Backend, i, j uint64) {
	t.Helper()
	ki, kj := snapshotName(i, KindDelta), snapshotName(j, KindDelta)
	hi, bi := getSnapshot(t, b, ki)
	hj, bj := getSnapshot(t, b, kj)
	putSnapshot(t, b, ki, hi, bj)
	putSnapshot(t, b, kj, hj, bi)
}

// rewriteObject replaces the object at key with edit(its bytes).
func rewriteObject(t *testing.T, b storage.Backend, key string, edit func([]byte) []byte) {
	t.Helper()
	data, err := b.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, edit(bytes.Clone(data))); err != nil {
		t.Fatal(err)
	}
}

// FuzzEndsOnlyMatchesPerLink is the equivalence oracle for making the
// target's payload hash the one check of content on a clean recovery:
// whatever is done to a chain, recovery must restore the same snapshot, to
// the same bytes, and say the same thing about every snapshot it skipped as
// a recovery that checks everything where it reads it — every chunk against
// its address, the payload at the anchor and after every link
// (verifyEveryLink) — and what either returns must be, bitwise, the state
// that was saved under that sequence number. A clean recovery walks a chain
// it could not use at most once more. The fuzzer picks the body layout, the
// state family (payloads that grow every step, or keep their length and
// have incompressible chunks), a state to save twice, the damage, the
// snapshot it hits and the worker count.
//
// Two divergences are allowed, and only in the direction of restoring more —
// the clean recovery refuses what the every-check one refuses, in the same
// words, until it stops sooner, and VerifyBackend names the damage it
// restored through:
//
//   - XOR deltas between payloads of one length commute and undo themselves,
//     so wrong intermediates can end in the right payload: two such links
//     with their bodies swapped — or two of their chunks that cover the same
//     bytes, with their files swapped — rebuild every payload above the upper
//     one exactly, and a well-formed wrong piece at an address that an even
//     number of links XOR into the same bytes (the all-zero chunk of a sparse
//     chain) cancels out of the last of them. An every-check recovery refuses
//     those snapshots (the payloads in between are wrong, the frames miss
//     their addresses); a clean recovery may return one, because its payload
//     hashes to its header — it is the saved state, which the bitwise check
//     confirms.
//   - A stored frame that no longer hashes to its address but still unframes
//     to the piece that was saved there — the piece framed raw where it was
//     compressed or the other way round, a flipped bit the inflater does not
//     read — builds the right payload: the clean recovery restores the newest
//     snapshot and skips nothing, the every-check recovery refuses every
//     snapshot that names the chunk.
func FuzzEndsOnlyMatchesPerLink(f *testing.F) {
	f.Add(uint64(1), uint8(layoutMonolithic), uint8(0), uint8(damageWrongBit), uint8(3), uint16(0))
	f.Add(uint64(2), uint8(layoutFixed), uint8(0), uint8(damageLonger), uint8(2), uint16(0))
	f.Add(uint64(3), uint8(layoutCDC), uint8(0), uint8(damageFlipByte), uint8(5), uint16(700))
	f.Add(uint64(4), uint8(layoutFixed), uint8(0), uint8(damageTruncate), uint8(4), uint16(90))
	f.Add(uint64(5), uint8(layoutMonolithic), uint8(0), uint8(damageSwapLinks), uint8(2), uint16(3))
	f.Add(uint64(6), uint8(layoutCDC), uint8(3), uint8(damageNone), uint8(0), uint16(0))
	f.Add(uint64(7), uint8(layoutFixed), uint8(2), uint8(damageWrongBit), uint8(6), uint16(0))
	f.Add(uint64(8), uint8(layoutFixed), uint8(0), uint8(damageSwapLinks), uint8(1), uint16(4))          // fixed-length states: the links commute
	f.Add(uint64(10), uint8(layoutFixed), uint8(0), uint8(damageChunkFlipRaw), uint8(0), uint16(9))      // an anchor chunk of random floats
	f.Add(uint64(11), uint8(layoutCDC), uint8(0), uint8(damageChunkFlipFlate), uint8(4), uint16(33))     // a link's chunk
	f.Add(uint64(12), uint8(layoutFixed), uint8(1), uint8(damageChunkFlipFlate), uint8(0), uint16(3))    // byte 3: the frame's recorded length
	f.Add(uint64(13), uint8(layoutCDC), uint8(0), uint8(damageChunkTruncate), uint8(0), uint16(2000))    // anchor
	f.Add(uint64(14), uint8(layoutFixed), uint8(0), uint8(damageChunkTruncate), uint8(7), uint16(4))     // the target, cut inside its header
	f.Add(uint64(15), uint8(layoutFixed), uint8(0), uint8(damageChunkMissing), uint8(0), uint16(1))      // anchor
	f.Add(uint64(16), uint8(layoutCDC), uint8(2), uint8(damageChunkMissing), uint8(5), uint16(0))        // a link
	f.Add(uint64(18), uint8(layoutFixed), uint8(0), uint8(damageChunkSwap), uint8(0), uint16(23))        // anchor chunk ↔ some other file
	f.Add(uint64(20), uint8(layoutFixed), uint8(0), uint8(damageChunkSwap), uint8(3), uint16(0))         // two links' first chunks: they commute
	f.Add(uint64(21), uint8(layoutCDC), uint8(0), uint8(damageChunkOther), uint8(0), uint16(77))         // anchor
	f.Add(uint64(22), uint8(layoutFixed), uint8(0), uint8(damageChunkOther), uint8(6), uint16(5))        // a link
	f.Add(uint64(4), uint8(layoutFixed), uint8(5), uint8(damageChunkOther), uint8(4), uint16(4))         // the all-zero chunk eight links name: the wrong bit cancels
	f.Add(uint64(24), uint8(layoutFixed), uint8(0), uint8(damageChunkReframe), uint8(0), uint16(2))      // raw → flate at the anchor
	f.Add(uint64(25), uint8(layoutCDC), uint8(0), uint8(damageChunkReframe), uint8(4), uint16(1))        // flate → raw at a link
	f.Add(uint64(27), uint8(layoutMonolithic), uint8(0), uint8(damageChunkMissing), uint8(2), uint16(0)) // no chunks: nothing to damage
	f.Fuzz(func(t *testing.T, seed uint64, layoutSel, dup, damageSel, at uint8, arg uint16) {
		const n = 8
		states := bigSeqStates(n) // every payload 8 bytes longer than the last
		if seed%2 == 0 {
			states = sparseStates(seed, 4<<10, n, 24) // one length throughout
		}
		if d := int(dup) % n; d > 0 {
			states = append(states[:d+1], states[d:]...) // state d saved twice
		}
		opts := Options{AnchorEvery: len(states)}
		switch int(layoutSel) % layoutLegacy {
		case layoutFixed:
			opts = chunkedOpts(opts)
		case layoutCDC:
			opts = chunkedOpts(opts)
			opts.Chunker = ChunkerCDC
		}
		mem := saveChain(t, opts, states)
		newest := uint64(len(states) - 1)
		link := 1 + uint64(at)%newest
		key := snapshotName(link, KindDelta)
		damage := int(damageSel) % damageCount
		var chunk string   // the address a chunk damage hit
		var samePiece bool // … and left holding another frame of the same piece
		switch damage {
		case damageWrongBit:
			substituteWrongDelta(t, mem, link)
		case damageLonger:
			substituteLongerDelta(t, mem, link)
		case damageFlipByte:
			if addrs, err := manifestAddrs(mem, key); err != nil {
				t.Fatal(err)
			} else if len(addrs) > 0 {
				chunk = addrs[int(arg)%len(addrs)]
				key = ChunkKey(chunk)
			}
			rewriteObject(t, mem, key, func(data []byte) []byte {
				data[int(arg)%len(data)] ^= 0x40
				return data
			})
		case damageTruncate:
			rewriteObject(t, mem, key, func(data []byte) []byte { return data[:int(arg)%len(data)] })
		case damageSwapLinks:
			if other := 1 + uint64(arg)%newest; other != link {
				swapLinkBodies(t, mem, link, other)
			}
		case damageNone:
		default: // a chunk of any snapshot of the chain, the anchor included
			if snap := uint64(at) % (newest + 1); snap == 0 {
				key = snapshotName(0, KindFull)
			} else {
				key = snapshotName(snap, KindDelta)
			}
			chunk, samePiece = damageChunk(t, mem, key, damage, arg)
		}

		type outcome struct {
			seq     uint64
			payload []byte
			skipped []string
		}
		recoverWith := func(everything bool) outcome {
			verifyEveryLink = everything
			defer func() { verifyEveryLink = false }()
			got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: int(seed % 3)})
			if everything && report.ConvictionWalks != 0 {
				t.Fatalf("an every-check recovery ran %d conviction walks", report.ConvictionWalks)
			} else if report.ConvictionWalks > 1 {
				t.Fatalf("%d conviction walks over one damaged chain: a convicted link was walked again", report.ConvictionWalks)
			}
			if errors.Is(err, ErrNoCheckpoint) {
				return outcome{seq: math.MaxUint64, skipped: report.Skipped}
			} else if err != nil {
				t.Fatal(err)
			}
			payload, err := EncodePayload(got)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := EncodePayload(states[report.Seq]); !bytes.Equal(payload, want) {
				t.Fatalf("everything=%v restored seq %d to bytes that are not the state saved under it", everything, report.Seq)
			}
			return outcome{report.Seq, payload, report.Skipped}
		}
		clean, every := recoverWith(false), recoverWith(true)
		if samePiece && (clean.seq != newest || len(clean.skipped) != 0) {
			t.Fatalf("chunk %.12s… holds another frame of its own piece: the clean recovery restored seq %d, skipping %v", chunk, int64(clean.seq), clean.skipped)
		}
		if clean.seq != every.seq {
			// What the clean recovery refused, the every-check one refused
			// in the same words; it may only have stopped refusing sooner,
			// at a snapshot checked bitwise above, over damage that leaves
			// well-formed pieces of the right length behind.
			switch damage {
			case damageSwapLinks, damageFlipByte, damageChunkFlipRaw, damageChunkFlipFlate, damageChunkSwap, damageChunkOther, damageChunkReframe:
			default:
				t.Fatalf("damage %d: clean recovery restored seq %d, every-check seq %d", damage, int64(clean.seq), int64(every.seq))
			}
			if clean.seq == math.MaxUint64 || every.seq != math.MaxUint64 && clean.seq < every.seq {
				t.Fatalf("the clean recovery restored seq %d, below the every-check recovery's %d", int64(clean.seq), int64(every.seq))
			}
			if len(every.skipped) < len(clean.skipped) {
				t.Fatalf("the clean recovery skipped more than the every-check one: %v vs %v", clean.skipped, every.skipped)
			}
			named := "" // swapped links: the lower one's payload hash
			if damage == damageChunkSwap {
				named = "corrupt in backend" // whichever of the two a chain meets first
			} else if chunk != "" {
				named = "chunk " + chunk + " corrupt in backend"
			}
			_, problems, err := VerifyBackend(mem)
			if said := strings.Join(problems, "\n"); err != nil || said == "" || !strings.Contains(said, named) {
				t.Fatalf("VerifyBackend does not name the damage (chunk %q) a clean recovery restored through: %v, %v", chunk, problems, err)
			}
			every.skipped = every.skipped[:len(clean.skipped)]
		} else if !bytes.Equal(clean.payload, every.payload) {
			t.Fatalf("seq %d restored to different bytes", int64(clean.seq))
		}
		if strings.Join(clean.skipped, "\n") != strings.Join(every.skipped, "\n") {
			t.Fatalf("Skipped differs.\nclean:\n%s\nevery check:\n%s", strings.Join(clean.skipped, "\n"), strings.Join(every.skipped, "\n"))
		}
	})
}

// incompressibleStates yields n states whose optimizer blob is random
// bytes, redrawn for every state: anchor and delta chunks alike are stored
// raw, so their pieces alias the frames they were read as.
func incompressibleStates(n int) []*TrainingState {
	r := rng.New(99)
	s := NewTrainingState()
	s.Optimizer = make([]byte, 32<<10)
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	out := make([]*TrainingState, n)
	for i := range out {
		s = s.Clone()
		s.Step = uint64(i)
		for j := range s.Optimizer {
			s.Optimizer[j] = byte(r.Uint64())
		}
		out[i] = s
	}
	return out
}

// TestResolveDoesNotMutateTheCache resolves one chain three times through
// one snapshotView. The second and third resolutions are served from the
// view's cache, so they match the first only if neither in-place
// application nor the caller scribbling over a returned payload reached
// anything the view keeps.
func TestResolveDoesNotMutateTheCache(t *testing.T) {
	states := incompressibleStates(5)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states)
	want, err := EncodePayload(states[4])
	if err != nil {
		t.Fatal(err)
	}
	v := newSnapshotView(mem, RestoreOptions{Workers: 2})
	bySeq, byHash, _, err := eagerIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := byHash.chain(bySeq[0])
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := v.resolvePayload(chain)
		chainLen := len(chain)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if chainLen != 5 || !bytes.Equal(got.b, want) {
			t.Fatalf("round %d: chain %d resolved to different bytes than the first time", round, chainLen)
		}
		for i := range got.b {
			got.b[i] = 0xFF
		}
		got.release() // the next round resolves into this buffer
	}
	// Only a raw chunk's piece aliases the frame it was read as; the newest
	// delta must hold one for the above to have tried anything.
	newest, err := v.readObject(bySeq[0].key, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	for _, addr := range newest.info.addrs {
		if frame, err := v.cs.Get(addr); err == nil && frame[0] == chunkFrameRaw {
			raw++
		}
	}
	if bySeq[0].h.Kind != KindDeltaChunked || raw == 0 {
		t.Fatalf("newest snapshot is %v with %d raw chunks: no delta piece aliases a frame", bySeq[0].h.Kind, raw)
	}
}

// sparseStates yields n states of params random float64 parameters, each a
// window-parameter sub-step away from the one before: a chain whose anchor
// holds no zero chunk and whose delta bodies are zero almost everywhere.
func sparseStates(seed uint64, params, n, window int) []*TrainingState {
	r := rng.New(seed)
	s := NewTrainingState()
	s.Params = make([]float64, params)
	for i := range s.Params {
		s.Params[i] = r.NormFloat64()
	}
	s.Meta = Meta{FormatVersion: FormatVersion, CircuitFP: "c", ProblemFP: "p", OptimizerName: "adam"}
	out := make([]*TrainingState, n)
	for i := range out {
		s = s.Clone()
		s.Step = uint64(i)
		for j := 0; j < window; j++ {
			s.Params[(i*window+j)%params] += 1e-3 * r.NormFloat64()
		}
		out[i] = s
	}
	return out
}

// sharedReadGate is a Hook that counts every Get that reaches the store
// beneath a restore and parks the first read of one chunk, held, until
// the read of another delta link's chunk arrives behind it. It observes
// a Tier over the Mem, which serves ranged reads natively, so a header
// probe is an OpGetRange and every full read of an object is one Get.
type sharedReadGate struct {
	held        string          // key of the chunk every delta link names
	deltaChunks map[string]bool // keys of the chunks delta links name

	mu       sync.Mutex
	gets     map[string]int
	parked   bool
	second   chan struct{} // closed by the first delta-chunk read that finds held parked
	timedOut bool
}

func (g *sharedReadGate) hold(op storage.Op) (int64, error) {
	if op.After || op.Kind != storage.OpGet {
		return 0, nil
	}
	g.mu.Lock()
	g.gets[op.Key]++
	park := op.Key == g.held && !g.parked
	if park {
		g.parked = true
	} else if g.parked && g.deltaChunks[op.Key] && g.second != nil {
		close(g.second)
		g.second = nil
	}
	second := g.second
	g.mu.Unlock()
	if park {
		select {
		case <-second:
		case <-time.After(10 * time.Second):
			g.mu.Lock()
			g.timedOut = true
			g.mu.Unlock()
		}
	}
	return 0, nil
}

// TestSharedChunkOfTwoWarmsIsReadOnce is the property that lets the chain
// prefetcher run its warms unordered. Every delta link of a sparse chain
// names the all-zero chunk, and two warms are in flight at a time; the
// first read of that chunk is parked in the store until the other warm —
// the only reader that can get to a delta chunk meanwhile, and one that
// asks for all of its link's chunks before it fetches any — is also past
// asking for it. A read cache without single-flight sends that second
// asker to the store as well.
func TestSharedChunkOfTwoWarmsIsReadOnce(t *testing.T) {
	const links = 16
	states := sparseStates(7, 8<<10, links, 24)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: links}), states)

	// The chunks each link names, from the manifests as stored: held is
	// the one every delta names and the anchor does not.
	gate := &sharedReadGate{deltaChunks: make(map[string]bool), gets: make(map[string]int), second: make(chan struct{})}
	keys, err := mem.List(snapshotKeyPrefix)
	if err != nil {
		t.Fatal(err)
	}
	namedBy := make(map[string]int) // chunk key → delta links naming it
	anchorChunks := make(map[string]bool)
	for _, key := range keys {
		h, manifest := getSnapshot(t, mem, key)
		info, err := decodeChunkManifest(manifest)
		if err != nil {
			t.Fatal(err)
		}
		distinct, _ := distinctAddrs(info.addrs)
		for _, addr := range distinct {
			if h.Kind.Base() == KindDelta {
				gate.deltaChunks[ChunkKey(addr)] = true
				namedBy[ChunkKey(addr)]++
			} else {
				anchorChunks[ChunkKey(addr)] = true
			}
		}
	}
	for key, n := range namedBy {
		if n == links-1 && !anchorChunks[key] {
			gate.held = key
		}
	}
	if len(keys) != links || gate.held == "" {
		t.Fatalf("%d snapshots stored, chunk named by every delta and not by the anchor: %q", len(keys), gate.held)
	}

	got, report, err := LoadLatestBackendOptions(storage.Observe(storage.NewTier(mem, storage.DeviceNVMe), gate.hold), nil, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.ChainLen != links || len(report.Skipped) != 0 {
		t.Fatalf("restored a chain of %d, skipped %v", report.ChainLen, report.Skipped)
	}
	want, _ := EncodePayload(states[links-1])
	if have, _ := EncodePayload(got); !bytes.Equal(have, want) {
		t.Error("restore is not bitwise")
	}
	if !gate.parked || gate.timedOut {
		t.Errorf("parked=%v timedOut=%v: no second reader came for the shared chunk while its first read was held", gate.parked, gate.timedOut)
	}
	for key, n := range gate.gets {
		if n != 1 {
			t.Errorf("%s reached the store %d times", key, n)
		}
	}
	if objects, _ := mem.List(""); len(gate.gets) != len(objects) {
		t.Errorf("%d objects read of the %d the chain is made of", len(gate.gets), len(objects))
	}
}

// TestHostileManifestLengthIsSkipped: a manifest may claim any body length,
// and restore preallocates that many bytes. One that claims more than its
// chunks could hold must be skipped as corrupt, not die in makeslice.
func TestHostileManifestLengthIsSkipped(t *testing.T) {
	states := bigSeqStates(3)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 1}), states)
	newest := snapshotName(2, KindFull)
	h, manifest := getSnapshot(t, mem, newest)
	info, err := decodeChunkManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, rawLen := range []int{math.MaxInt, len(info.addrs)*MaxChunkBytes + 1} {
		hostile, err := EncodeSnapshotFile(h, appendChunkManifest(nil, rawLen, cdcParams{}, info.addrs))
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(newest, hostile); err != nil {
			t.Fatal(err)
		}
		got, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{})
		if err != nil {
			t.Fatalf("rawLen %d: %v", rawLen, err)
		}
		if report.Seq != 1 || !got.Equal(states[1]) || len(report.Skipped) != 1 {
			t.Fatalf("rawLen %d: restored seq %d, skipped %v; want fallback to seq 1", rawLen, report.Seq, report.Skipped)
		}
	}
	if _, err := decodeChunkManifest(appendChunkManifest(nil, len(info.addrs)*MaxChunkBytes, cdcParams{}, info.addrs)); err != nil {
		t.Errorf("a manifest of full-size chunks was refused: %v", err)
	}
}

// TestLoadReportAttributesTheRestore checks the stage ledger of a sparse
// chunked chain: the stages fit inside the wall-clock time, the counts
// describe the work (two payload hashes — anchor and target — however long
// the chain, zero pieces skipped rather than XORed, no conviction walk), and
// they repeat exactly.
func TestLoadReportAttributesTheRestore(t *testing.T) {
	states := bigSeqStates(6)
	mem := saveChain(t, chunkedOpts(Options{AnchorEvery: 8}), states)
	payload, err := EncodePayload(states[5])
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, report, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 2})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	c := report.LoadCost
	for name, d := range map[string]time.Duration{"Index": c.Index, "Fetch": c.Fetch, "Apply": c.Apply, "Verify": c.Verify, "Decode": c.Decode} {
		if d <= 0 {
			t.Errorf("stage %s not timed", name)
		}
	}
	if sum := c.Index + c.Fetch + c.Apply + c.Verify + c.Decode; sum > wall {
		t.Errorf("stages sum to %v, more than the %v the restore took", sum, wall)
	}
	if c.ChunksFetched == 0 || c.ZeroPiecesSkipped == 0 {
		t.Errorf("ChunksFetched=%d ZeroPiecesSkipped=%d on a sparse chunked chain", c.ChunksFetched, c.ZeroPiecesSkipped)
	}
	// The payload hashed once, at the target, plus the chain's snapshot
	// files: no chunk frame, and not the anchor.
	if lo, hi := int64(len(payload)), int64(2*len(payload)); c.BytesHashed < lo || c.BytesHashed >= hi || c.ConvictionWalks != 0 {
		t.Errorf("BytesHashed = %d (%d conviction walks) for a %d-byte payload over %d links, want within [%d, %d) and none",
			c.BytesHashed, c.ConvictionWalks, len(payload), report.ChainLen, lo, hi)
	}
	_, again, err := LoadLatestBackendOptions(mem, nil, RestoreOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.ChunksFetched != c.ChunksFetched || again.ZeroPiecesSkipped != c.ZeroPiecesSkipped || again.BytesHashed != c.BytesHashed {
		t.Errorf("counts differ between runs: %+v vs %+v", again.LoadCost, c)
	}
}

// BenchmarkRestoreChain is the sub-step restore in isolation: a 2 MiB state
// in 8 KiB chunks on a Mem backend, one anchor and 15 delta links that each
// dirtied 0.3 % of it, above an older chain of the same shape. hashed-B/op is
// the restore's SHA-256 traffic — the chain's snapshot files and the payload
// at the target: one state-sized hash however long the chain. probed/op is
// the headers the recovery index read (the restored chain's 16, not the
// store's 32) and chunks-fetched/op the chunk reads the walk issued.
func BenchmarkRestoreChain(b *testing.B) {
	const params, links, window = 256 << 10, 16, 768 // 2 MiB of float64; 768 params ≈ 0.3 %
	states := sparseStates(13, params, 2*links, window)
	mem := saveChain(b, Options{AnchorEvery: links, ChunkBytes: 8 << 10, Workers: 2}, states)
	opts := RestoreOptions{Workers: 2, Prefetch: 4}
	b.SetBytes(8 * params)
	b.ReportAllocs()
	b.ResetTimer()
	var hashed int64
	var probed, fetched int
	for i := 0; i < b.N; i++ {
		got, report, err := LoadLatestBackendOptions(mem, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if report.ChainLen != links || got.Step != 2*links-1 {
			b.Fatalf("restored step %d over a chain of %d", got.Step, report.ChainLen)
		}
		hashed += report.BytesHashed
		probed += report.HeadersProbed
		fetched += report.ChunksFetched
	}
	b.ReportMetric(float64(hashed)/float64(b.N), "hashed-B/op")
	b.ReportMetric(float64(probed)/float64(b.N), "probed/op")
	b.ReportMetric(float64(fetched)/float64(b.N), "chunks-fetched/op")
}

// BenchmarkRestoreFull is the full-step restore in isolation: one full
// snapshot of a 2 MiB state in 64 KiB chunks on a Mem backend, under the
// options the end-to-end benchmark restores with. B/op is what is left to
// allocate beside the decoded state once the payload and the inflated chunks
// come from the pools; hashed-B/op is the file and the payload, once each.
func BenchmarkRestoreFull(b *testing.B) {
	const params = 256 << 10 // 2 MiB of float64
	states := sparseStates(13, params, 1, 0)
	mem := saveChain(b, Options{ChunkBytes: 64 << 10, Workers: 2}, states)
	opts := RestoreOptions{Workers: 2, Prefetch: 4}
	b.SetBytes(8 * params)
	b.ReportAllocs()
	b.ResetTimer()
	var hashed int64
	for i := 0; i < b.N; i++ {
		got, report, err := LoadLatestBackendOptions(mem, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if report.ChainLen != 1 || len(got.Params) != params {
			b.Fatalf("restored %d params over a chain of %d", len(got.Params), report.ChainLen)
		}
		hashed += report.BytesHashed
	}
	b.ReportMetric(float64(hashed)/float64(b.N), "hashed-B/op")
}
