package core

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// Pooled codec layer. The synchronous half of a save — payload encode,
// delta encode, chunk framing — stalls the training loop, so at steady
// state it must not allocate: every buffer and every flate coder it uses
// is recycled through the pools below. Restore shares the reader pool and
// the buffers: a preempted job resumes in the trainer's process, so the
// payload a restore fills is one a save recycled, compressed chunks inflate
// into scratch, and a restore returns every buffer once the state is decoded
// (DESIGN.md §8 has the table of who takes what and gives it back). The
// zero-alloc property is locked in by TestPooledEncodeZeroAllocs.
//
// Ownership rules:
//
//   - refBuf is reference-counted because one payload buffer can be live
//     in three roles at once: the trainer's delta base (lastPayload), an
//     in-flight async write job's body, and the persist path's retained
//     dirty-compare base of the body's kind (Manager.bases, chunkBase.body
//     — an anchor's buffer is held there until the next anchor commits, a
//     delta's until the next delta). The last release returns it to the
//     pool; until then no role may mutate the bytes.
//   - Plain scratch from getScratch is single-owner and must be returned
//     with putScratch by the goroutine that took it, after the backend
//     call consuming it returns (Backend.Put must not retain its input —
//     see the storage.Backend contract). The restore engine is the one
//     hand-over: a helper inflates a chunk into scratch and the walking
//     goroutine puts it back at the piece's last use.

// refBuf is a pool-managed, reference-counted byte buffer.
type refBuf struct {
	b    []byte
	refs atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(refBuf) }}

// poolHook, when a test sets it, sees every buffer cross a pool's edge: +1
// and nothing as one leaves, -1 and its whole capacity as one goes back.
// The tests count with it what is still out and overwrite what goes back,
// so a use after release reads 0xDB instead of passing by luck.
var poolHook func(delta int, returned []byte)

// getBody returns an empty buffer with at least hint capacity and one
// reference. A fresh buffer gets a sixteenth of headroom: a payload grows
// by a loss-history entry per save, and an exact fit would leave every
// recycled buffer eight bytes short of the next one.
func getBody(hint int) *refBuf {
	if poolHook != nil {
		poolHook(+1, nil)
	}
	rb := bodyPool.Get().(*refBuf)
	if cap(rb.b) < hint {
		rb.b = make([]byte, 0, hint+hint/16)
	} else {
		rb.b = rb.b[:0]
	}
	rb.refs.Store(1)
	return rb
}

// reserve gives the buffer room for n bytes, contents kept: the buffer
// outgrown trades places with a pooled one, so holders of rb keep holding
// the payload. Single-holder only, like every write to the bytes.
func (rb *refBuf) reserve(n int) {
	if n <= cap(rb.b) {
		return
	}
	grown := getBody(n)
	grown.b = append(grown.b, rb.b...)
	rb.b, grown.b = grown.b, rb.b
	grown.release()
}

// detach hands the bytes to a caller outside the pools' discipline (the
// exported readers return caller-owned memory) and recycles the emptied
// refBuf. Single-holder only.
func (rb *refBuf) detach() []byte {
	b := rb.b
	rb.b = nil
	rb.release()
	return b
}

// retain adds a reference for a new holder.
func (rb *refBuf) retain() { rb.refs.Add(1) }

// release drops one reference; the last holder's release recycles the
// buffer. Nil-safe so teardown paths can release unconditionally.
func (rb *refBuf) release() {
	if rb == nil {
		return
	}
	if n := rb.refs.Add(-1); n == 0 {
		if poolHook != nil {
			poolHook(-1, rb.b[:cap(rb.b)])
		}
		bodyPool.Put(rb)
	} else if n < 0 {
		panic("core: refBuf over-released")
	}
}

// scratchPool recycles transient single-owner buffers: compressed chunk
// frames, manifest bodies, and snapshot file images, all of which die as
// soon as the backend call consuming them returns; on restore, inflated
// chunks until their last visit and manifest text until it is parsed.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func getScratch() *[]byte {
	if poolHook != nil {
		poolHook(+1, nil)
	}
	return scratchPool.Get().(*[]byte)
}

func putScratch(p *[]byte) {
	if poolHook != nil {
		poolHook(-1, (*p)[:cap(*p)])
	}
	*p = (*p)[:0]
	scratchPool.Put(p)
}

// appendWriter adapts a byte slice to io.Writer for the pooled flate
// writer. It lives inside compressor so handing it to flate does not
// escape a fresh allocation per call.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// compressor bundles a flate writer with its output sink so both recycle
// as one unit.
type compressor struct {
	out appendWriter
	fw  *flate.Writer
}

var compressorPool = sync.Pool{New: func() any {
	c := &compressor{}
	// NewWriter only errors on an invalid level; CompressionLevel is a
	// package constant, so this cannot fail.
	c.fw, _ = flate.NewWriter(&c.out, CompressionLevel)
	return c
}}

// compressAppend appends the flate compression of data (at
// CompressionLevel) to dst using a pooled writer. Reset guarantees the
// stream is byte-identical to a fresh writer's, which content addressing
// of compressed chunks depends on.
func compressAppend(dst, data []byte) ([]byte, error) {
	c := compressorPool.Get().(*compressor)
	c.out.buf = dst
	c.fw.Reset(&c.out)
	_, werr := c.fw.Write(data)
	cerr := c.fw.Close()
	out := c.out.buf
	c.out.buf = nil
	compressorPool.Put(c)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return out, nil
}

// decompressor bundles a flate reader with its input source.
type decompressor struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var decompressorPool = sync.Pool{New: func() any {
	d := &decompressor{}
	d.src.Reset(nil)
	d.fr = flate.NewReader(&d.src)
	return d
}}

// DecompressBody inflates a flate-compressed snapshot or chunk body into a
// fresh buffer the caller owns. A non-negative sizeHint (the chunk frame's
// recorded raw length) sizes the output exactly and rejects any size
// mismatch as corruption; sizeHint < 0 grows the output as needed (snapshot
// bodies, whose raw size the file format does not record).
func DecompressBody(comp []byte, sizeHint int) ([]byte, error) {
	return inflate(nil, comp, sizeHint)
}

// inflate is DecompressBody into dst's capacity, using a pooled reader:
// dst's contents are overwritten and the result aliases dst when it fits.
func inflate(dst, comp []byte, sizeHint int) ([]byte, error) {
	d := decompressorPool.Get().(*decompressor)
	d.src.Reset(comp)
	if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		decompressorPool.Put(d)
		return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	if sizeHint < 0 {
		// Manifest text and XOR deltas inflate to several times their
		// stored size, dense payloads to about it: twice the input reaches
		// most bodies in one step and wastes at most one body's worth.
		dst = slices.Grow(dst[:0], max(1024, 2*len(comp)))
	}
	out, err := readAllSized(dst[:0], d.fr, sizeHint)
	d.src.Reset(nil)
	decompressorPool.Put(d)
	if err != nil {
		return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	return out, nil
}

// inflateScratch is inflate into pooled scratch, which comes back beside the
// bytes for the caller to putScratch at their last use. On an error the
// scratch is back in its pool with the buffer it had: one sized on a bad
// length's word is not kept.
func inflateScratch(comp []byte, sizeHint int) ([]byte, *[]byte, error) {
	sp := getScratch()
	out, err := inflate(*sp, comp, sizeHint)
	if err != nil {
		putScratch(sp)
		return nil, nil, err
	}
	*sp = out
	return out, sp, nil
}

// readAllSized drains r into out's capacity, growing it as needed. With a
// hint it reads exactly that many bytes and verifies EOF follows; without
// one it grows geometrically like io.ReadAll.
func readAllSized(out []byte, r io.Reader, sizeHint int) ([]byte, error) {
	if sizeHint >= 0 {
		out = slices.Grow(out, sizeHint)[:sizeHint]
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, fmt.Errorf("body shorter than recorded length %d: %v", sizeHint, err)
		}
		var probe [1]byte
		if n, err := r.Read(probe[:]); n != 0 || err != io.EOF {
			return nil, fmt.Errorf("body longer than recorded length %d", sizeHint)
		}
		return out, nil
	}
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := r.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
