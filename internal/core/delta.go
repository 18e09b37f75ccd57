package core

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"iter"
	"math/bits"
	"slices"
)

// Delta encoding operates on canonical payloads: the delta of `cur` against
// `base` is cur XOR base over their common prefix, followed by cur's raw
// tail (payload lengths change when the loss history grows or the gradient
// accumulator fills). Because training state changes slowly — parameters
// move in low-order mantissa bits, most sections are untouched between
// sub-step checkpoints — the XOR stream is overwhelmingly zero bytes, which
// the flate layer in the snapshot writer then collapses. Experiment F5
// measures the resulting ratio.
//
// The XOR is crypto/subtle.XORBytes, vectorised where the platform allows:
// payloads are multi-megabyte and the delta encode sits on the synchronous
// save path, where a Go word loop was 38 % of a sub-step save's CPU.
//
// Wire format:
//
//	curLen  uint64
//	baseLen uint64 (validated at apply time)
//	body    [curLen]byte — XOR over min(curLen, baseLen), raw beyond

// AppendDelta appends the delta of cur against base to dst and returns the
// extended slice. With 16+len(cur) spare capacity it allocates nothing.
func AppendDelta(dst, base, cur []byte) []byte {
	return appendDelta(dst, base, cur, dirtyMap{})
}

// appendDelta is AppendDelta guided by dirty, cur's map against base, on the
// save path: only the granules the map marks are XORed, into dst's spare
// capacity, which must be all zero (a body from the manager's free list,
// zeroBodies) — the same bytes, without reading or writing the clean ones.
// With no map the whole prefix is XORed.
func appendDelta(dst, base, cur []byte, dirty dirtyMap) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(cur)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(base)))
	n := min(len(cur), len(base))
	off := len(dst)
	dst = slices.Grow(dst, len(cur))[:off+len(cur)]
	out := dst[off:]
	for lo, hi := range dirty.marked(0, n) {
		subtle.XORBytes(out[lo:hi], cur[lo:hi], base[lo:hi])
	}
	copy(out[n:], cur[n:])
	return dst
}

// granuleBytes is the save path's diff granule: a power of two dividing
// leafBytes, so a leaf is clean exactly when its bytes are.
const granuleBytes = 4 << 10

// dirtyMap records which granules of a payload differ from base, the
// payload it was diffed against: granule j, bytes [j·gran, min((j+1)·gran,
// len)), is marked when its bytes changed or it reaches past base's end. A
// save diffs once and hands the map down: a delta body's unmarked granules
// are zero, the chunk plan adopts a delta chunk neither body's map marks,
// and the leaf hash keeps an unmarked leaf's hash. The zero value is no
// map, and every consumer then reads the bytes.
type dirtyMap struct {
	gran int // granule bytes, a power of two; 0: no map
	base int // len(base)
	bits []uint64
}

// clean reports whether d is a map that marks no granule under bytes
// [lo, hi); granules past the map count as marked.
func (d dirtyMap) clean(lo, hi int) bool {
	if d.gran == 0 {
		return false
	}
	s := bits.TrailingZeros(uint(d.gran))
	for j, end := uint(lo)>>s, uint(hi+d.gran-1)>>s; j < end; j = (j | 63) + 1 { // j's word, under a mask of the granules [j, end) in it
		if j/64 >= uint(len(d.bits)) || d.bits[j/64]>>(j%64)&(1<<min(end-j, 64-j%64)-1) != 0 {
			return false
		}
	}
	return true
}

// markedAt reports whether d marks the granule holding byte off: with no
// map, or past it, every granule is marked.
func (d dirtyMap) markedAt(off int) bool {
	j := off / max(d.gran, 1)
	return d.gran == 0 || j/64 >= len(d.bits) || d.bits[j/64]&(1<<(j%64)) != 0
}

// marked yields the bytes of [lo, hi) under each granule d marks, in order,
// as [from, to): a walk of the set bits that skips a clean word whole, so a
// loop over it costs O(marked granules + words), not a step per granule.
// With no map it yields [lo, hi) itself.
func (d dirtyMap) marked(lo, hi int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		if lo >= hi {
			return
		}
		if d.gran == 0 {
			yield(lo, hi)
			return
		}
		s := uint(bits.TrailingZeros(uint(d.gran)))
		for j, past := uint(lo)>>s, uint(hi-1)>>s+1; j < past; j++ {
			word := ^uint64(0) // past the map every granule is marked
			if j/64 < uint(len(d.bits)) {
				word = d.bits[j/64]
			}
			if word >>= j % 64; word == 0 {
				j |= 63 // the rest of j's word is clean
				continue
			}
			if j += uint(bits.TrailingZeros64(word)); j < past && !yield(max(lo, int(j<<s)), min(hi, int(j+1)<<s)) {
				return
			}
		}
	}
}

// ApplyDelta reconstructs cur from base and a delta produced by
// AppendDelta. It rejects deltas whose recorded base length does not match
// the supplied base (wrong chain link). base is not modified: the result is
// a copy the delta was applied to in place.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	out := make([]byte, len(base), max(len(base), len(delta)))
	copy(out, base)
	a := deltaApplier{payload: &refBuf{b: out}, rawLen: len(delta)} // room for cur: never traded for a pooled buffer
	if err := a.visit(0, delta); err != nil {
		return nil, err
	}
	if err := a.finish(); err != nil {
		return nil, err
	}
	return a.payload.b, nil
}

const deltaHeaderLen = 16

// deltaApplier applies one delta to a payload in place. The delta body
// arrives as read-only pieces in order — the chunks of a chunked delta, or
// a monolithic body as one piece — and only pieces with a non-zero byte
// cost an XOR, so a link that changed 0.3 % of the state does O(dirty)
// work instead of materialising and XORing O(state).
//
// The 16-byte header is validated against the payload and the declared
// body length before a byte of the payload changes; a rejected delta
// leaves it as it was. The payload is then resized to curLen — zero-filled
// growth makes the raw tail an XOR like the rest, truncation handles
// shrink — and each piece is XORed at its running offset. Once the header
// has passed, an error (pieces that do not add up to rawLen) leaves the
// payload partly applied: the caller owns it and must discard it.
type deltaApplier struct {
	payload *refBuf // base going in, cur after finish; the caller is its one holder
	rawLen  int     // declared delta length, header included
	off     int     // delta bytes consumed so far
	hdr     [deltaHeaderLen]byte
	zero    []bool // per distinct piece, in first-visit order: all bytes zero
	skipped int    // zero pieces that cost no XOR
}

// visit consumes the next piece of the delta body. d numbers distinct
// pieces by first visit (walkPieces' contract), so a piece repeated
// through the body — the all-zero chunk, mostly — is classified once.
func (a *deltaApplier) visit(d int, piece []byte) error {
	if d == len(a.zero) {
		a.zero = append(a.zero, allZero(piece))
	}
	if len(piece) > a.rawLen-a.off {
		return fmt.Errorf("%w: delta pieces exceed the %d declared bytes", ErrCorrupt, a.rawLen)
	}
	if a.off < deltaHeaderLen {
		n := copy(a.hdr[a.off:], piece)
		a.off += n
		piece = piece[n:]
		if a.off < deltaHeaderLen {
			return nil
		}
		if err := a.resize(); err != nil {
			return err
		}
	}
	if a.zero[d] {
		a.skipped++
	} else {
		dst := a.payload.b[a.off-deltaHeaderLen:]
		subtle.XORBytes(dst, dst, piece) // over their common length
	}
	a.off += len(piece)
	return nil
}

// resize checks the completed header and gives the payload cur's length,
// growing it through the body pool when cur outgrew the buffer.
func (a *deltaApplier) resize() error {
	curLen := binary.LittleEndian.Uint64(a.hdr[:])
	baseLen := binary.LittleEndian.Uint64(a.hdr[8:])
	old := len(a.payload.b)
	if baseLen != uint64(old) {
		return fmt.Errorf("%w: delta expects base of %d bytes, got %d", ErrCorrupt, baseLen, old)
	}
	if curLen != uint64(a.rawLen-deltaHeaderLen) {
		return fmt.Errorf("%w: delta body %d bytes, header says %d", ErrCorrupt, a.rawLen-deltaHeaderLen, curLen)
	}
	n := int(curLen)
	a.payload.reserve(n)
	a.payload.b = a.payload.b[:n]
	if n > old {
		clear(a.payload.b[old:]) // spare capacity may hold a longer ancestor's tail
	}
	return nil
}

// finish reports whether every declared byte of the delta has been visited:
// the payload is then cur.
func (a *deltaApplier) finish() error {
	if a.rawLen < deltaHeaderLen {
		return fmt.Errorf("%w: delta too short (%d bytes)", ErrCorrupt, a.rawLen)
	}
	if a.off != a.rawLen {
		return fmt.Errorf("%w: delta pieces hold %d bytes, %d declared", ErrCorrupt, a.off, a.rawLen)
	}
	return nil
}

// allZero reports whether every byte of p is zero, word-wise with a byte
// tail.
func allZero(p []byte) bool {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != 0 {
			return false
		}
	}
	for ; i < len(p); i++ {
		if p[i] != 0 {
			return false
		}
	}
	return true
}
