package core

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
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

// xorWith XORs src into dst in place over their common length.
func xorWith(dst, src []byte) {
	n := min(len(dst), len(src))
	subtle.XORBytes(dst[:n], dst[:n], src[:n])
}

// EncodeDelta computes the delta of cur against base.
func EncodeDelta(base, cur []byte) []byte {
	return AppendDelta(make([]byte, 0, 16+len(cur)), base, cur)
}

// AppendDelta appends the delta of cur against base to dst and returns the
// extended slice. With 16+len(cur) spare capacity it allocates nothing,
// which is how the save path uses it (pooled delta-body buffers).
func AppendDelta(dst, base, cur []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(cur)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(base)))
	// One pass: XOR straight into the destination over the common prefix,
	// then copy cur's tail — not a copy of cur followed by an XOR over it.
	n := min(len(cur), len(base))
	off := len(dst)
	dst = slices.Grow(dst, len(cur))[:off+len(cur)]
	subtle.XORBytes(dst[off:], cur[:n], base[:n])
	copy(dst[off+n:], cur[n:])
	return dst
}

// ApplyDelta reconstructs cur from base and a delta produced by
// EncodeDelta. It rejects deltas whose recorded base length does not match
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
		xorWith(a.payload.b[a.off-deltaHeaderLen:], piece)
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
