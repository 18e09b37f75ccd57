package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// The canonical payload encoding is a deterministic sequence of tagged,
// CRC-protected sections. Determinism matters twice: byte-identical states
// encode to byte-identical payloads (so delta encoding against the previous
// payload produces runs of zero bytes that compress away), and payload
// hashes identify delta-chain bases unambiguously.
//
// Section wire format:
//
//	tag     uint8
//	length  uint32 (payload bytes)
//	payload [length]byte
//	crc32c  uint32 (over tag, length, payload)
//
// The CRCs are written last (sealSections), folded over 4 KiB granules: a
// save checksums only the granules its diff marks and the partial ones at
// section edges.

// Section tags, in canonical order. Every tag appears exactly once.
const (
	secCounters  = 0x01
	secParams    = 0x02
	secOptimizer = 0x03
	secRNG       = 0x04
	secGradAccum = 0x05
	secCursor    = 0x06
	secLossHist  = 0x07
	secBest      = 0x08
	secMeta      = 0x09
	numSections  = 9
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shift4K is the linear map with CRC(A ‖ G) = shift4K(CRC(A)) ⊕ CRC(G) for
// any bytes A and 4 KiB granule G (CRC-32C): the CRC register's advance over
// a granule of zeros, crc32's inversions undone. Linear, it is the XOR of
// four byte-indexed tables, and a section's CRC folds over granule CRCs.
var shift4K = func() (t [4][256]uint32) {
	zeros := make([]byte, granuleBytes)
	for k := range t {
		for b := 1; b < 256; b++ {
			if b&(b-1) == 0 { // a basis bit: crc32.Update's inversions undone
				t[k][b] = ^crc32.Update(^(uint32(b) << (8 * k)), castagnoli, zeros)
			} else {
				t[k][b] = t[k][b&(b-1)] ^ t[k][b&-b]
			}
		}
	}
	return t
}()

// sumOK marks a stored granule CRC in refBuf.sums; a zero slot is a granule
// that does not lie wholly inside one section's CRC span.
const sumOK = 1 << 32

// sealSections writes the CRC trailers a layout leaves unset in p and
// returns the bytes it fed to CRC-32C. A section's CRC runs over the partial
// granules at its span's edges and folds over the whole granules inside,
// whose CRCs it stores in sums (nil: none; else one zeroed slot per granule).
// A granule that d, p's map against last, leaves clean keeps last's stored
// CRC. The diff saw the trailers unset, so each granule a trailer lands in
// is compared with last again once it is written: d stays a byte compare of
// the sealed payloads. With the zero map every byte is read.
func sealSections(p []byte, sums []uint64, d *dirtyMap, last *refBuf) int {
	fed := 0
	for off := 0; off < len(p); off += 4 {
		_, _, end, err := section(p, off)
		if err != nil {
			panic(err) // p is a layout's bytes
		}
		crc := uint32(0)
		for hi := off; off < end; off = hi {
			j := off / granuleBytes
			if hi = min((j+1)*granuleBytes, end); off%granuleBytes != 0 || hi-off < granuleBytes {
				crc = crc32.Update(crc, castagnoli, p[off:hi])
				fed += hi - off
				continue
			}
			c := uint64(0)
			if !d.markedAt(off) && j < len(last.sums) {
				c = last.sums[j]
			}
			if c == 0 {
				c = sumOK | uint64(crc32.Checksum(p[off:hi], castagnoli))
				fed += granuleBytes
			}
			if sums != nil {
				sums[j] = c
			}
			crc = shift4K[0][crc&0xff] ^ shift4K[1][crc>>8&0xff] ^ shift4K[2][crc>>16&0xff] ^ shift4K[3][crc>>24] ^ uint32(c)
		}
		binary.LittleEndian.PutUint32(p[end:], crc)
		for j := end / max(d.gran, 1); d.gran > 0 && j*d.gran < end+4; j++ {
			lo, hi := j*d.gran, min((j+1)*d.gran, len(p))
			d.bits[j/64] &^= 1 << (j % 64)
			if hi > len(last.b) || !bytes.Equal(p[lo:hi], last.b[lo:hi]) {
				d.bits[j/64] |= 1 << (j % 64)
			}
		}
	}
	return fed
}

// littleEndian reports whether the host lays a float64 out as its wire
// encoding, so a float section is one copy of memory (f64Bytes).
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes is the memory of vs as bytes, the section encoding of vs on a
// little-endian host; nil elsewhere, where the float loops run instead.
func f64Bytes(vs []float64) []byte {
	if !littleEndian || len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// pieceBytes bounds one copy of a bulk section. On amd64 runtime.memmove
// writes a copy of 1 MiB or more with non-temporal stores, which would
// leave the bytes in DRAM just before they are read again.
const pieceBytes = 64 << 10

// appendPieces appends src to buf one pieceBytes copy at a time.
func appendPieces(buf, src []byte) []byte {
	for len(src) > pieceBytes {
		buf, src = append(buf, src[:pieceBytes]...), src[pieceBytes:]
	}
	return append(buf, src...)
}

// payloadSpans is a payload laid out in wire order as spans, its CRC
// trailers zero: a bulk section's span is the state's own memory (f64Bytes
// of floats), and headers, small sections and trailers are encoded into
// small. A save diffs and writes from the spans (fill), copying only what
// its buffer needs; a manager keeps one as scratch.
type payloadSpans struct {
	spans  [][]byte
	at     []int // per span: its start in small, -1 for the state's memory
	small  []byte
	mark   int    // the start in small of the bytes no span holds yet
	n      int    // the bytes the spans hold: the payload's length once laid out
	sec    [2]int // the open section's payload offset and its start in small
	params [2]int // the parameters' payload offsets
}

// spansFree holds AppendPayload's layouts. A sync.Pool would lose them to
// every other collection, and encoding a multi-MiB state starts one about
// that often, so a layout would be an allocation per call again. Eight is
// more encodes than ever overlap: a save lays out into its manager's own.
var spansFree = make(chan *payloadSpans, 8)

// off is the payload offset of the next byte laid out.
func (p *payloadSpans) off() int { return p.n + len(p.small) - p.mark }

// mem makes the bytes encoded since the last span a span of small, and b,
// the state's memory, the next one.
func (p *payloadSpans) mem(b []byte) {
	if k := len(p.small) - p.mark; k > 0 {
		p.spans, p.at, p.n, p.mark = append(p.spans, p.small[p.mark:]), append(p.at, p.mark), p.n+k, len(p.small)
	}
	if len(b) > 0 {
		p.spans, p.at, p.n = append(p.spans, b), append(p.at, -1), p.n+len(b)
	}
}

func (p *payloadSpans) u64s(vs ...uint64) {
	for _, v := range vs {
		p.small = binary.LittleEndian.AppendUint64(p.small, v)
	}
}

// f64s lays out floats: their memory on a little-endian host, the loop's
// encoding in small elsewhere.
func (p *payloadSpans) f64s(vs []float64) {
	if raw := f64Bytes(vs); raw != nil {
		p.mem(raw)
		return
	}
	for _, v := range vs {
		p.u64s(math.Float64bits(v))
	}
}

// begin ends the open section, if any — its length backfilled, its trailer
// unset — and opens the next with a length placeholder, unless tag is 0.
func (p *payloadSpans) begin(tag byte) {
	if p.off() > 0 {
		binary.LittleEndian.PutUint32(p.small[p.sec[1]+1:], uint32(p.off()-p.sec[0]-5))
		p.small = append(p.small, 0, 0, 0, 0)
	}
	if tag != 0 {
		p.sec = [2]int{p.off(), len(p.small)}
		p.small = append(p.small, tag, 0, 0, 0, 0)
	}
}

// layout lays out the sections of s, a state of a shape Validate accepts.
func (p *payloadSpans) layout(s *TrainingState) {
	*p = payloadSpans{spans: p.spans[:0], at: p.at[:0], small: p.small[:0]}
	p.begin(secCounters) // with step and epoch
	p.u64s(s.Step, s.Epoch, uint64(s.Counters.QPUClockNS), s.Counters.TotalShots, s.Counters.WastedShots, s.Counters.Jobs, s.Counters.Preemptions)
	p.begin(secParams)
	p.params = [2]int{p.off(), p.off() + 8*len(s.Params)}
	p.f64s(s.Params)
	p.begin(secOptimizer)
	p.mem(s.Optimizer)
	p.begin(secRNG)
	p.mem(s.RNG)
	p.begin(secCursor)
	p.small = binary.LittleEndian.AppendUint32(p.small, s.DataPos)
	for _, v := range s.DataPerm {
		p.small = binary.LittleEndian.AppendUint32(p.small, v)
	}
	p.begin(secBest)
	p.u64s(math.Float64bits(s.BestLoss))
	p.f64s(s.BestParams)
	p.begin(secMeta)
	p.small = binary.LittleEndian.AppendUint32(p.small, s.Meta.FormatVersion)
	for _, f := range [...]string{s.Meta.CircuitFP, s.Meta.ProblemFP, s.Meta.OptimizerName, s.Meta.Extra} {
		p.small = binary.LittleEndian.AppendUint32(p.small, uint32(len(f)))
		p.small = append(p.small, f...)
	}
	p.u64s(uint64(s.Meta.CreatedUnixNano))
	// Variable-size sections go last in the canonical order: when the loss
	// history or the gradient accumulator grows between snapshots, only the
	// bytes after the growth point lose XOR alignment with the delta base.
	// Placing them at the tail keeps the fixed-size sections (params,
	// optimizer moments, RNG) aligned, which is most of the payload.
	p.begin(secGradAccum)
	p.mem(s.GradAccum)
	p.begin(secLossHist)
	p.f64s(s.LossHistory)
	p.begin(0)
	p.mem(nil)
	for i, lo := range p.at { // small may have moved as it grew
		if lo >= 0 {
			p.spans[i] = p.small[lo : lo+len(p.spans[i])]
		}
	}
}

// fill is a save's byte work on rb, a buffer of the payload's length: it
// writes the spans into rb, maps them a granule's pieces at a time against
// last, the payload saved before (nil: no map), as a byte compare would,
// and seals rb on the map. With patch rb holds the payload saved before
// last at this length, and a piece is written only where it differs from
// last or last's map marks its granule: nowhere else can rb differ. It
// returns the bytes written and the bytes fed to CRC-32C.
func (p *payloadSpans) fill(rb, last *refBuf, patch bool) (copied, crc int) {
	d, n := &rb.dirty, (len(rb.b)+granuleBytes-1)/granuleBytes
	*d = dirtyMap{bits: slices.Grow(d.bits[:0], (n+63)/64)[:(n+63)/64]}
	clear(d.bits)
	if last != nil {
		d.gran, d.base = granuleBytes, len(last.b)
	}
	off := 0
	for _, s := range p.spans {
		if !patch { // the whole span, in pieces, into the buffer's room
			copied += len(appendPieces(rb.b[off:off], s))
		}
		for len(s) > 0 {
			j, k := off/granuleBytes, min(len(s), granuleBytes-off%granuleBytes)
			same := !d.markedAt(off) && off+k <= len(last.b) && bytes.Equal(s[:k], last.b[off:off+k])
			if !same {
				d.bits[j/64] |= 1 << (j % 64)
			}
			if patch && (!same || last.dirty.markedAt(off)) {
				copied += copy(rb.b[off:], s[:k])
			}
			off, s = off+k, s[k:]
		}
	}
	rb.sums = slices.Grow(rb.sums[:0], n)[:n]
	clear(rb.sums)
	return copied, sealSections(rb.b, rb.sums, d, last)
}

// EncodePayload serializes the state into the canonical payload form
// (uncompressed; compression and framing happen at the snapshot layer).
func EncodePayload(s *TrainingState) ([]byte, error) {
	return AppendPayload(nil, s)
}

// AppendPayload appends the canonical payload encoding of s to buf and
// returns the extended slice. It allocates nothing when buf has room for
// the payload, and produces bytes identical to EncodePayload's.
func AppendPayload(buf []byte, s *TrainingState) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var p *payloadSpans
	select {
	case p = <-spansFree:
	default:
		p = new(payloadSpans)
	}
	p.layout(s)
	at := len(buf)
	if cap(buf)-at < p.n { // make, unlike slices.Grow, skips zeroing fresh memory
		buf = append(make([]byte, 0, at+p.n), buf...)
	}
	for _, span := range p.spans {
		buf = appendPieces(buf, span)
	}
	clear(p.spans) // the free list holds no state's memory
	select {
	case spansFree <- p:
	default:
	}
	sealSections(buf[at:], nil, &dirtyMap{}, nil)
	return buf, nil
}

// checkParams is a save's parameter check, Validate's finiteness half, on
// p, a sealed payload holding its parameters at span: it reads from the
// stored bytes the parameters under the granules d, p's map against the
// payload saved before it, marks, a parameter across a granule edge whole.
// Every payload a save accepted was checked, so a parameter under a clean
// granule is finite when that payload held its parameters at the same span,
// lastSpan; with no map, or another span, every parameter is read. It
// returns the parameter bytes under the granules read.
func checkParams(p []byte, span, lastSpan [2]int, d dirtyMap) (int, error) {
	if span != lastSpan {
		d = dirtyMap{} // no map: every granule is read
	}
	read := 0
	for g, end := range d.marked(span[0], span[1]) {
		read += end - g
		for off := g - (g-span[0])%8; off < end; off += 8 {
			if v := binary.LittleEndian.Uint64(p[off:]); v&expBits == expBits {
				return read, nonFinite((off-span[0])/8, math.Float64frombits(v))
			}
		}
	}
	return read, nil
}

// section parses the section header at data[off:] and returns the tag, the
// section's payload and the offset of its CRC trailer, the end of the span
// the CRC covers. It checks lengths, not the CRC.
func section(data []byte, off int) (tag byte, payload []byte, end int, err error) {
	if len(data)-off < 9 {
		return 0, nil, 0, fmt.Errorf("core: truncated section header at offset %d", off)
	}
	tag = data[off]
	end = off + 5 + int(binary.LittleEndian.Uint32(data[off+1:]))
	if end+4 > len(data) {
		return 0, nil, 0, fmt.Errorf("core: truncated section %#x at offset %d", tag, off)
	}
	return tag, data[off+5 : end], end, nil
}

func readF64s(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("core: float section length %d not a multiple of 8", len(payload))
	}
	out := make([]float64, len(payload)/8)
	if raw := f64Bytes(out); raw != nil {
		appendPieces(raw[:0], payload)
		return out, nil
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return out, nil
}

func readString(payload []byte) (string, []byte, error) {
	if len(payload) < 4 {
		return "", nil, fmt.Errorf("core: truncated string")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) < 4+n {
		return "", nil, fmt.Errorf("core: truncated string body")
	}
	return string(payload[4 : 4+n]), payload[4+n:], nil
}

// DecodePayload parses a canonical payload back into a TrainingState. It
// verifies every section CRC, rejects duplicate or missing sections, and
// validates the result.
func DecodePayload(data []byte) (*TrainingState, error) {
	s := NewTrainingState()
	var seen uint32 // bit t: tag t was read; an unknown tag fails where it is first read
	for off := 0; off < len(data); {
		tag, payload, end, err := section(data, off)
		if err == nil && crc32.Checksum(data[off:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
			err = fmt.Errorf("core: section %#x CRC mismatch (corruption)", tag)
		} else if err == nil && seen&(1<<tag) != 0 {
			err = fmt.Errorf("core: duplicate section %#x", tag)
		}
		if err != nil {
			return nil, err
		}
		seen |= 1 << tag
		off = end + 4
		switch tag {
		case secCounters:
			if len(payload) != 8*7 {
				return nil, fmt.Errorf("core: counters section length %d", len(payload))
			}
			s.Step = binary.LittleEndian.Uint64(payload[0:])
			s.Epoch = binary.LittleEndian.Uint64(payload[8:])
			s.Counters.QPUClockNS = int64(binary.LittleEndian.Uint64(payload[16:]))
			s.Counters.TotalShots = binary.LittleEndian.Uint64(payload[24:])
			s.Counters.WastedShots = binary.LittleEndian.Uint64(payload[32:])
			s.Counters.Jobs = binary.LittleEndian.Uint64(payload[40:])
			s.Counters.Preemptions = binary.LittleEndian.Uint64(payload[48:])
		case secParams:
			s.Params, err = readF64s(payload)
		case secOptimizer:
			s.Optimizer = append([]byte{}, payload...)
		case secRNG:
			s.RNG = append([]byte{}, payload...)
		case secGradAccum:
			s.GradAccum = append([]byte{}, payload...)
		case secCursor:
			if len(payload) < 4 || (len(payload)-4)%4 != 0 {
				return nil, fmt.Errorf("core: cursor section length %d", len(payload))
			}
			s.DataPos = binary.LittleEndian.Uint32(payload)
			perm := make([]uint32, (len(payload)-4)/4)
			for i := range perm {
				perm[i] = binary.LittleEndian.Uint32(payload[4+i*4:])
			}
			s.DataPerm = perm
		case secLossHist:
			s.LossHistory, err = readF64s(payload)
		case secBest:
			if len(payload) < 8 || (len(payload)-8)%8 != 0 {
				return nil, fmt.Errorf("core: best section length %d", len(payload))
			}
			s.BestLoss = math.Float64frombits(binary.LittleEndian.Uint64(payload))
			s.BestParams, err = readF64s(payload[8:])
		case secMeta:
			if len(payload) < 4 {
				return nil, fmt.Errorf("core: meta section too short")
			}
			s.Meta.FormatVersion = binary.LittleEndian.Uint32(payload)
			rest := payload[4:]
			for _, f := range [...]*string{&s.Meta.CircuitFP, &s.Meta.ProblemFP, &s.Meta.OptimizerName, &s.Meta.Extra} {
				if *f, rest, err = readString(rest); err != nil {
					return nil, err
				}
			}
			if len(rest) != 8 {
				return nil, fmt.Errorf("core: meta trailer length %d", len(rest))
			}
			s.Meta.CreatedUnixNano = int64(binary.LittleEndian.Uint64(rest))
		default:
			return nil, fmt.Errorf("core: unknown section %#x", tag)
		}
		if err != nil {
			return nil, err
		}
	}
	if n := bits.OnesCount32(seen); n != numSections {
		return nil, fmt.Errorf("core: payload has %d sections, want %d", n, numSections)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: decoded state invalid: %w", err)
	}
	return s, nil
}
