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
//     in three roles at once: the trainer's delta base (lastPayload, then
//     the lagging buffer), an in-flight async write job's body, and the
//     persist path's retained dirty-compare base of the body's kind
//     (Manager.bases, chunkBase.body — an anchor's buffer is held there
//     until the next anchor commits, a delta's until the next delta). The
//     last release returns it to the pool; until then no role may mutate
//     the bytes, but a save patches a lagging buffer it alone holds.
//   - Plain scratch from getScratch is single-owner and must be returned
//     with putScratch by the goroutine that took it, after the backend
//     call consuming it returns (Backend.Put must not retain its input —
//     see the storage.Backend contract). The restore engine is the one
//     hand-over: a helper inflates a chunk into scratch and the walking
//     goroutine puts it back at the piece's last use.

// refBuf is a pool-managed, reference-counted byte buffer.
type refBuf struct {
	b []byte
	// dirty maps a saved payload against the one before it; a delta body
	// carries its payload's map. Written once, before the buffer is shared.
	dirty dirtyMap
	sums  []uint64    // a saved payload's granule CRCs, rewritten by every seal; the next save's seal keeps them where its map allows
	zeros *zeroBodies // a save's delta body: the free list its last release zeroes it onto
	refs  atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(refBuf) }}

// poolHook, when a test sets it, sees every buffer cross a pool's edge: +1
// and nothing as one leaves, -1 and its whole capacity as one goes back,
// zero when it promises to be all zero (a delta body for its free list).
// The tests count with it what is still out, check the promise, and
// overwrite every other buffer that goes back, so a use after release reads
// 0xDB instead of passing by luck.
var poolHook func(delta int, returned []byte, zero bool)

// getBody returns an empty buffer with at least hint capacity and one
// reference. A fresh buffer gets a sixteenth of headroom: a payload grows
// by a loss-history entry per save, and an exact fit would leave every
// recycled buffer eight bytes short of the next one.
func getBody(hint int) *refBuf {
	if poolHook != nil {
		poolHook(+1, nil, false)
	}
	rb := bodyPool.Get().(*refBuf)
	if cap(rb.b) < hint {
		rb.b = make([]byte, 0, hint+hint/16)
	} else {
		rb.b = rb.b[:0]
	}
	rb.dirty = dirtyMap{bits: rb.dirty.bits[:0]}
	rb.zeros = nil
	rb.refs.Store(1)
	return rb
}

// zeroBodies is a manager's free list of delta bodies, all zero over their
// capacity. A body's unmarked granules are zero by construction, so its
// last release clears only what the save wrote — the header, the marked
// granules and the raw tail — and the next body starts zeroed without a
// state-sized fill. Releases come from the persisting goroutine, takes
// from the trainer's.
type zeroBodies struct {
	mu   sync.Mutex
	free []*refBuf
}

// get returns a zeroed, empty body with room for n bytes and one reference.
func (z *zeroBodies) get(n int) *refBuf {
	z.mu.Lock()
	var rb *refBuf
	if k := len(z.free) - 1; k >= 0 {
		rb, z.free = z.free[k], z.free[:k]
	}
	z.mu.Unlock()
	if rb == nil || cap(rb.b) < n { // none, or one the payload outgrew: a body cleared once
		rb = getBody(n)
		clear(rb.b[:cap(rb.b)])
		rb.zeros = z
		return rb
	}
	if poolHook != nil {
		poolHook(+1, nil, false)
	}
	rb.b, rb.dirty = rb.b[:0], dirtyMap{bits: rb.dirty.bits[:0]}
	rb.refs.Store(1)
	return rb
}

// put zeroes what a save wrote into the delta body rb and parks it.
func (z *zeroBodies) put(rb *refBuf) {
	clear(rb.b[:deltaHeaderLen])
	body, d := rb.b[deltaHeaderLen:], rb.dirty
	n := min(len(body), d.base)
	for lo, hi := range d.marked(0, n) {
		clear(body[lo:hi])
	}
	clear(body[n:])
	if poolHook != nil {
		poolHook(-1, rb.b[:cap(rb.b)], true)
	}
	z.mu.Lock()
	z.free = append(z.free, rb)
	z.mu.Unlock()
}

// drain hands the free list to the body pool, where restores find it.
func (z *zeroBodies) drain() {
	z.mu.Lock()
	defer z.mu.Unlock()
	for _, rb := range z.free {
		rb.zeros = nil
		bodyPool.Put(rb)
	}
	z.free = nil
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

// retain adds a reference for a new holder.
func (rb *refBuf) retain() { rb.refs.Add(1) }

// release drops one reference; the last holder's release recycles the
// buffer. Nil-safe so teardown paths can release unconditionally.
func (rb *refBuf) release() {
	if rb == nil {
		return
	}
	if n := rb.refs.Add(-1); n == 0 {
		if rb.zeros != nil {
			rb.zeros.put(rb)
			return
		}
		if poolHook != nil {
			poolHook(-1, rb.b[:cap(rb.b)], false)
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
		poolHook(+1, nil, false)
	}
	return scratchPool.Get().(*[]byte)
}

func putScratch(p *[]byte) {
	if poolHook != nil {
		poolHook(-1, (*p)[:cap(*p)], false)
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

// inflate decompresses a snapshot or chunk body into dst's capacity with a
// pooled reader; the result aliases dst when it fits. A sizeHint ≥ 0 (a chunk
// frame's raw length) must match exactly, or the body is corrupt; < 0 grows
// the output as needed (a snapshot body records no raw size).
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
