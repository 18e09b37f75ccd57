package core

import (
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

// beginSection writes the tag and a length placeholder and returns the
// section's start offset; endSection backfills the length and leaves the
// CRC to sealSections. Writing section payloads directly into the
// destination (instead of building them in per-section scratch and copying)
// is what keeps AppendPayload allocation-free on a buffer with enough
// capacity.
func beginSection(buf []byte, tag byte) ([]byte, int) {
	start := len(buf)
	buf = append(buf, tag, 0, 0, 0, 0)
	return buf, start
}

func endSection(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-5))
	return append(buf, 0, 0, 0, 0)
}

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

// sealSections writes the CRC trailers appendSections left unset in p and
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
			panic(err) // p is appendSections' output
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
			if d.clean(off, hi) && j < len(last.sums) {
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
			d.compare(p, last.b, j)
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
// leave the payload in DRAM just before the save's diff reads it again.
const pieceBytes = 64 << 10

// appendPieces appends src to buf one pieceBytes copy at a time.
func appendPieces(buf, src []byte) []byte {
	for len(src) > pieceBytes {
		buf, src = append(buf, src[:pieceBytes]...), src[pieceBytes:]
	}
	return append(buf, src...)
}

func appendF64s(buf []byte, vs []float64) []byte {
	if raw := f64Bytes(vs); raw != nil {
		return appendPieces(buf, raw)
	}
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// payloadSizeHint is the capacity that lets AppendPayload run without
// growing its destination.
func payloadSizeHint(s *TrainingState) int {
	return s.Breakdown().Total + numSections*9 + 64
}

// EncodePayload serializes the state into the canonical payload form
// (uncompressed; compression and framing happen at the snapshot layer).
func EncodePayload(s *TrainingState) ([]byte, error) {
	return AppendPayload(make([]byte, 0, payloadSizeHint(s)), s)
}

// AppendPayload appends the canonical payload encoding of s to buf and
// returns the extended slice. It allocates nothing when buf has
// payloadSizeHint spare capacity — the save path's pooled buffers do —
// and produces bytes identical to EncodePayload's.
func AppendPayload(buf []byte, s *TrainingState) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := appendSections(buf, s)
	sealSections(p[len(buf):], nil, &dirtyMap{}, nil)
	return p, nil
}

// appendSections appends the sections of s, a state of a shape Validate
// accepts, to buf with their CRC trailers unset.
func appendSections(buf []byte, s *TrainingState) []byte {
	// Counters section also carries step/epoch.
	buf, start := beginSection(buf, secCounters)
	buf = binary.LittleEndian.AppendUint64(buf, s.Step)
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Counters.QPUClockNS))
	buf = binary.LittleEndian.AppendUint64(buf, s.Counters.TotalShots)
	buf = binary.LittleEndian.AppendUint64(buf, s.Counters.WastedShots)
	buf = binary.LittleEndian.AppendUint64(buf, s.Counters.Jobs)
	buf = binary.LittleEndian.AppendUint64(buf, s.Counters.Preemptions)
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secParams)
	buf = appendF64s(buf, s.Params)
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secOptimizer)
	buf = appendPieces(buf, s.Optimizer)
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secRNG)
	buf = append(buf, s.RNG...)
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secCursor)
	buf = binary.LittleEndian.AppendUint32(buf, s.DataPos)
	for _, v := range s.DataPerm {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secBest)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.BestLoss))
	buf = appendF64s(buf, s.BestParams)
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secMeta)
	buf = binary.LittleEndian.AppendUint32(buf, s.Meta.FormatVersion)
	buf = appendString(buf, s.Meta.CircuitFP)
	buf = appendString(buf, s.Meta.ProblemFP)
	buf = appendString(buf, s.Meta.OptimizerName)
	buf = appendString(buf, s.Meta.Extra)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Meta.CreatedUnixNano))
	buf = endSection(buf, start)

	// Variable-size sections go last in the canonical order: when the loss
	// history or the gradient accumulator grows between snapshots, only the
	// bytes after the growth point lose XOR alignment with the delta base.
	// Placing them at the tail keeps the fixed-size sections (params,
	// optimizer moments, RNG) aligned, which is most of the payload.
	buf, start = beginSection(buf, secGradAccum)
	buf = appendPieces(buf, s.GradAccum)
	buf = endSection(buf, start)

	buf, start = beginSection(buf, secLossHist)
	buf = appendF64s(buf, s.LossHistory)
	return endSection(buf, start)
}

// seal ends a save's encode: it maps rb's unsealed payload against last, the
// payload saved before it (nil for none), and seals it on the map, storing
// its granule CRCs for the next save. It returns the bytes fed to CRC-32C.
func (rb *refBuf) seal(last *refBuf) int {
	if last != nil {
		rb.dirty.diff(rb.b, last.b, granuleBytes)
	}
	n := (len(rb.b) + granuleBytes - 1) / granuleBytes
	rb.sums = slices.Grow(rb.sums[:0], n)[:n]
	clear(rb.sums)
	return sealSections(rb.b, rb.sums, &rb.dirty, last)
}

// checkParams is a save's parameter check, Validate's finiteness half, on
// rb's sealed payload: it reads from the stored bytes the parameters under
// the granules rb's map marks against last, the payload saved before it, a
// parameter across a granule edge whole. Every payload a save accepted was
// checked, so a parameter under a clean granule is finite when last held its
// parameters at the same span; with no last, or after a resize, every
// parameter is read. It returns the parameter bytes under the granules read.
func (rb *refBuf) checkParams(last *refBuf) (int, error) {
	span, d := paramSpan(rb.b), rb.dirty
	if last == nil || paramSpan(last.b) != span {
		d = dirtyMap{} // no map: every granule is read
	}
	read := 0
	for g, end := span[0], 0; g < span[1]; g = end {
		end = min((g/granuleBytes+1)*granuleBytes, span[1])
		if d.clean(g, end) {
			continue
		}
		read += end - g
		for off := g - (g-span[0])%8; off < end; off += 8 {
			if v := binary.LittleEndian.Uint64(rb.b[off:]); v&expBits == expBits {
				return read, nonFinite((off-span[0])/8, math.Float64frombits(v))
			}
		}
	}
	return read, nil
}

// paramSpan is where a payload of appendSections' holds its parameters: the
// body of its second section.
func paramSpan(p []byte) [2]int {
	_, _, end, _ := section(p, 0)
	_, _, hi, _ := section(p, end+4)
	return [2]int{end + 9, hi}
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
