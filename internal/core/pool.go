package core

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Pooled codec layer. The synchronous half of a save — payload encode,
// delta encode, chunk framing — stalls the training loop, so at steady
// state it must not allocate: every buffer and every flate coder it uses
// is recycled through the pools below. Restore-side decompression shares
// the reader pool (recovery is not the stall path, but re-priming flate
// state per chunk was measurable there too). The zero-alloc property is
// locked in by TestPooledEncodeZeroAllocs.
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
//     see the storage.Backend contract).

// refBuf is a pool-managed, reference-counted byte buffer.
type refBuf struct {
	b    []byte
	refs atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(refBuf) }}

// getBody returns an empty buffer with at least hint capacity and one
// reference.
func getBody(hint int) *refBuf {
	rb := bodyPool.Get().(*refBuf)
	if cap(rb.b) < hint {
		rb.b = make([]byte, 0, hint)
	} else {
		rb.b = rb.b[:0]
	}
	rb.refs.Store(1)
	return rb
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
		bodyPool.Put(rb)
	} else if n < 0 {
		panic("core: refBuf over-released")
	}
}

// scratchPool recycles transient single-owner buffers: compressed chunk
// frames, manifest bodies, and snapshot file images, all of which die as
// soon as the backend call consuming them returns.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func getScratch() *[]byte { return scratchPool.Get().(*[]byte) }

func putScratch(p *[]byte) {
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

// DecompressBody inflates a flate-compressed snapshot or chunk body using
// a pooled reader. A non-negative sizeHint (the chunk frame's or
// manifest's recorded raw length) preallocates the output exactly and
// rejects any size mismatch as corruption; sizeHint < 0 grows the output
// as needed (monolithic snapshot bodies, whose raw size the file format
// does not record).
func DecompressBody(comp []byte, sizeHint int) ([]byte, error) {
	d := decompressorPool.Get().(*decompressor)
	d.src.Reset(comp)
	if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		decompressorPool.Put(d)
		return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	out, err := readAllSized(d.fr, sizeHint)
	d.src.Reset(nil)
	decompressorPool.Put(d)
	if err != nil {
		return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	return out, nil
}

// readAllSized drains r into a buffer preallocated from sizeHint. With a
// hint it reads exactly that many bytes and verifies EOF follows; without
// one it grows geometrically like io.ReadAll, but starting from a
// hint-free guess large enough that small bodies read in one step.
func readAllSized(r io.Reader, sizeHint int) ([]byte, error) {
	if sizeHint >= 0 {
		out := make([]byte, sizeHint)
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, fmt.Errorf("body shorter than recorded length %d: %v", sizeHint, err)
		}
		var probe [1]byte
		if n, err := r.Read(probe[:]); n != 0 || err != io.EOF {
			return nil, fmt.Errorf("body longer than recorded length %d", sizeHint)
		}
		return out, nil
	}
	out := make([]byte, 0, 1024)
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
