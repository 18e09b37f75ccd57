package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Content-defined chunking (FastCDC-style). Fixed-size chunk boundaries
// break dedup the moment checkpoint state shifts by a byte — a replay
// buffer growing at the front, optimizer state resizing, parameter groups
// reordering between jobs — because every downstream chunk slides off its
// old boundary and hashes to a new address. A content-defined chunker
// derives boundaries from the bytes themselves (a rolling gear hash hits a
// cutpoint when its masked value is zero), so an insertion perturbs only
// the chunks overlapping the edit: the chunker re-synchronizes on the
// first content-derived cutpoint past it and every later chunk keeps its
// old bytes, address and dedup hit.
//
// The implementation follows FastCDC (Xia et al., ATC'16):
//
//   - Gear hash: h = (h << 1) + gear[b], one table lookup and shift-add
//     per byte. The 256-entry gear table is generated at init from a
//     fixed seed (splitmix64), so cutpoints are deterministic across
//     processes, architectures and runs — a requirement for dedup between
//     jobs that never share memory. cdcGearID names the table+algorithm
//     revision and is recorded in every CHUNKS3 manifest.
//   - Normalized chunking: between minSize and the target (normal) size
//     the judgment mask carries normLevel more bits than the target would
//     need (cutpoints harder to hit, chunks pushed toward the target);
//     past it the mask carries normLevel fewer (easier, so few chunks hit
//     the hard maxSize ceiling). This tightens the size distribution
//     around the target, which is what makes a CDC store comparable to a
//     fixed-size store "at equal average chunk size".
//   - Sub-minimum skip: the first minSize bytes of every chunk are not
//     even hashed. This both speeds chunking up and enforces the floor.
//
// Masks select the TOP k bits of the hash (the gear shift-add accumulates
// the most mixed entropy there), matching the spread-mask intent of the
// paper without its lookup tables.

// cdcGearID names the chunking algorithm revision: the gear table seed,
// the mask construction and the normalization level. Recorded in CHUNKS3
// manifests so tooling can verify two stores chunk compatibly; bump it if
// any of those constants ever change (they change chunk boundaries, which
// silently halves cross-history dedup).
const cdcGearID = "gear1"

// cdcGearSeed seeds the deterministic gear table. Arbitrary but frozen:
// changing it re-cuts every chunk in every existing store.
const cdcGearSeed = 0x71c3_9a1f_e44b_62d9

// cdcNormLevel is the FastCDC normalization level: bits added to the
// judgment mask below the target size and removed above it.
const cdcNormLevel = 2

// cdcGear is the 256-entry gear table, filled at init by splitmix64 so
// every process computes identical cutpoints.
var cdcGear [256]uint64

func init() {
	x := uint64(cdcGearSeed)
	for i := range cdcGear {
		// splitmix64: a tiny, well-mixed PRNG with no allocation and a
		// pure-function contract — exactly what a frozen table wants.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		cdcGear[i] = z ^ (z >> 31)
	}
}

// cdcParams bounds one chunker instance. Invariant: 0 < minSize ≤
// normSize ≤ maxSize, enforced by cdcParamsFor and fixedParams.
type cdcParams struct {
	minSize  int    // no cutpoint before this many bytes (final chunk excepted)
	normSize int    // target (average) chunk size
	maxSize  int    // forced cutpoint at this many bytes
	maskS    uint64 // strict judgment mask, used below normSize
	maskL    uint64 // loose judgment mask, used from normSize to maxSize
}

// topMask returns a mask selecting the top k bits of a uint64.
func topMask(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return ^uint64(0) << (64 - k)
}

// cdcParamsFor derives the chunker parameters from a target average chunk
// size, using the FastCDC conventions: min = avg/4, max = avg*4, and
// normalized masks of log2(avg)±cdcNormLevel bits. avg must be a sensible
// chunk size (Options validation enforces [MinChunkBytes, MaxChunkBytes]
// before this runs); values below 64 bytes are clamped so the mask math
// stays meaningful for tests that chunk tiny inputs.
func cdcParamsFor(avg int) cdcParams {
	if avg < 64 {
		avg = 64
	}
	b := bits.Len(uint(avg)) - 1 // floor(log2(avg))
	return cdcParams{
		minSize:  avg / 4,
		normSize: avg,
		maxSize:  avg * 4,
		maskS:    topMask(b + cdcNormLevel),
		maskL:    topMask(b - cdcNormLevel),
	}
}

// fixedParams is the fixed-size boundary rule as a chunker: with min = avg
// = max = size, nextCut returns min(size, remaining) without hashing a byte.
// size must be positive.
func fixedParams(size int) cdcParams {
	return cdcParams{minSize: size, normSize: size, maxSize: size}
}

// fixed reports whether p cuts at fixed offsets (the zero params included):
// such a body is committed under a CHUNKS2 manifest.
func (p cdcParams) fixed() bool { return p.minSize == p.maxSize }

// String renders the parameter triple the way CHUNKS3 manifests record it.
func (p cdcParams) String() string {
	return fmt.Sprintf("%s %d %d %d", cdcGearID, p.minSize, p.normSize, p.maxSize)
}

// nextCut returns the length of the chunk starting at data[0]: the number
// of bytes up to and including the first cutpoint, maxSize if no mask
// fires, or len(data) when the remaining bytes run out first (the final
// chunk of a body may be shorter than minSize). Deterministic: the result
// depends only on the bytes and the params.
func (p cdcParams) nextCut(data []byte) int {
	n := len(data)
	if n <= p.minSize {
		return n
	}
	if n > p.maxSize {
		n = p.maxSize
	}
	norm := p.normSize
	if norm > n {
		norm = n
	}
	var h uint64
	i := p.minSize
	for ; i < norm; i++ {
		h = (h << 1) + cdcGear[data[i]]
		if h&p.maskS == 0 {
			return i + 1
		}
	}
	for ; i < n; i++ {
		h = (h << 1) + cdcGear[data[i]]
		if h&p.maskL == 0 {
			return i + 1
		}
	}
	return n
}

// appendCutpoints appends the chunk end offsets of body to dst and returns
// the extended slice: strictly increasing, final entry len(body), every
// chunk within [minSize, maxSize] except the final one, which may be
// shorter. A zero-length body yields no cutpoints. The rolling hash
// restarts at every cutpoint, so a chunk's boundaries depend only on its
// own bytes and its start offset — the property the incremental save path
// leans on when it re-chunks just the dirty chunks (manager.go plan).
func appendCutpoints(dst []int, body []byte, p cdcParams) []int {
	for pos := 0; pos < len(body); {
		pos += p.nextCut(body[pos:])
		dst = append(dst, pos)
	}
	return dst
}

// commonSuffixWords returns the length of the longest common suffix,
// word-wise from the tails.
func commonSuffixWords(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if binary.LittleEndian.Uint64(a[len(a)-i-8:]) != binary.LittleEndian.Uint64(b[len(b)-i-8:]) {
			break
		}
	}
	for ; i < n; i++ {
		if a[len(a)-i-1] != b[len(b)-i-1] {
			return i
		}
	}
	return i
}
