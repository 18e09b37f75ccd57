package core

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Snapshot file format:
//
//	magic        [6]byte  "QCKPT1"
//	kind         uint8    (1 = full, 2 = delta)
//	seq          uint64   monotone sequence number within a run
//	step         uint64   optimizer step at capture time (informational)
//	baseHash     [32]byte SHA-256 of the base payload (zero for full)
//	payloadHash  [32]byte SHA-256 of the resulting canonical payload
//	bodyLen      uint64   compressed body length
//	body         flate(payload)       for full
//	             flate(delta bytes)   for delta
//	fileHash     [32]byte SHA-256 of everything above
//
// Every read verifies fileHash first (detects torn or corrupted files),
// then — after decompression and, for deltas, chain application — verifies
// payloadHash (detects wrong-base application and logic errors).

var magic = [6]byte{'Q', 'C', 'K', 'P', 'T', '1'}

// SnapshotKind distinguishes full snapshots from delta links, and
// monolithic bodies from chunked ones. For the monolithic kinds the file
// body is the (compressed) payload or delta bytes; for the chunked kinds
// the body is a chunk manifest and the payload or delta bytes live in the
// backend's content-addressed chunk store (see chunked.go).
type SnapshotKind uint8

// Snapshot kinds.
const (
	KindFull         SnapshotKind = 1
	KindDelta        SnapshotKind = 2
	KindFullChunked  SnapshotKind = 3
	KindDeltaChunked SnapshotKind = 4
)

// String returns the kind name.
func (k SnapshotKind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	case KindFullChunked:
		return "full-chunked"
	case KindDeltaChunked:
		return "delta-chunked"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Chunked reports whether the snapshot body is a chunk manifest.
func (k SnapshotKind) Chunked() bool {
	return k == KindFullChunked || k == KindDeltaChunked
}

// Base maps a chunked kind to its monolithic equivalent (KindFull or
// KindDelta); monolithic kinds map to themselves. Strategy logic, file
// naming and retention operate on base kinds.
func (k SnapshotKind) Base() SnapshotKind {
	switch k {
	case KindFullChunked:
		return KindFull
	case KindDeltaChunked:
		return KindDelta
	}
	return k
}

// chunkedVariant maps a base kind to its chunked equivalent.
func (k SnapshotKind) chunkedVariant() SnapshotKind {
	switch k {
	case KindFull:
		return KindFullChunked
	case KindDelta:
		return KindDeltaChunked
	}
	return k
}

// validKind reports whether k is a known kind.
func validKind(k SnapshotKind) bool {
	return k >= KindFull && k <= KindDeltaChunked
}

// Header is the parsed snapshot file header.
type Header struct {
	Kind        SnapshotKind
	Seq         uint64
	Step        uint64
	BaseHash    [32]byte
	PayloadHash [32]byte
	BodyLen     uint64
}

const headerSize = 6 + 1 + 8 + 8 + 32 + 32 + 8

// ErrCorrupt is wrapped by all integrity failures, so recovery can
// distinguish "corrupt, try an older snapshot" from I/O errors.
var ErrCorrupt = errors.New("core: snapshot corrupt")

// CompressionLevel selects the flate effort for snapshot bodies.
// flate.BestSpeed keeps checkpoint latency low; the delta zero-runs
// compress well at any level.
const CompressionLevel = flate.BestSpeed

// EncodeSnapshotFile builds the on-disk byte image of a snapshot. For
// KindFull, body is the canonical payload; for KindDelta, body is the delta
// bytes and payloadHash must be the hash of the payload the delta
// reconstructs.
func EncodeSnapshotFile(h Header, body []byte) ([]byte, error) {
	return appendSnapshotFile(make([]byte, 0, headerSize+len(body)/2+96), h, body)
}

// appendSnapshotFile appends the snapshot file image to buf, compressing
// the body directly into it — the allocation-free form the save path runs
// on pooled scratch. buf must be empty (length zero; capacity is reused),
// because the whole-file hash covers everything in it.
func appendSnapshotFile(buf []byte, h Header, body []byte) ([]byte, error) {
	buf = append(buf, magic[:]...)
	buf = append(buf, byte(h.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, h.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, h.Step)
	buf = append(buf, h.BaseHash[:]...)
	buf = append(buf, h.PayloadHash[:]...)
	lenOff := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf, err := compressAppend(buf, body)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(buf[lenOff:], uint64(len(buf)-lenOff-8))
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return buf, nil
}

// DecodeSnapshotFile verifies the whole-file hash and returns the header
// and decompressed body.
func DecodeSnapshotFile(data []byte) (Header, []byte, error) {
	h, comp, err := checkSnapshotFile(data)
	if err != nil {
		return h, nil, err
	}
	raw, err := DecompressBody(comp, -1) // a snapshot body records no raw size
	return h, raw, err
}

// checkSnapshotFile verifies a snapshot file image up to its body — the
// whole-file hash, the header, the body length — and returns the header and
// the still-compressed body, which aliases data.
func checkSnapshotFile(data []byte) (Header, []byte, error) {
	if len(data) < headerSize+32 {
		return Header{}, nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(data))
	}
	payloadEnd := len(data) - 32
	var want [32]byte
	copy(want[:], data[payloadEnd:])
	if sum := sha256.Sum256(data[:payloadEnd]); sum != want {
		return Header{}, nil, fmt.Errorf("%w: file hash mismatch", ErrCorrupt)
	}
	h, err := parseHeaderBytes(data)
	if err != nil {
		return h, nil, err
	}
	body := data[headerSize:payloadEnd]
	if uint64(len(body)) != h.BodyLen {
		return h, nil, fmt.Errorf("%w: body length %d, header says %d", ErrCorrupt, len(body), h.BodyLen)
	}
	return h, body, nil
}

// parseHeaderBytes parses the fixed-size header prefix of a snapshot file
// image (without whole-file verification).
func parseHeaderBytes(buf []byte) (Header, error) {
	var h Header
	if len(buf) < headerSize {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if !bytes.Equal(buf[:6], magic[:]) {
		return h, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h.Kind = SnapshotKind(buf[6])
	if !validKind(h.Kind) {
		return h, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, buf[6])
	}
	h.Seq = binary.LittleEndian.Uint64(buf[7:])
	h.Step = binary.LittleEndian.Uint64(buf[15:])
	copy(h.BaseHash[:], buf[23:55])
	copy(h.PayloadHash[:], buf[55:87])
	h.BodyLen = binary.LittleEndian.Uint64(buf[87:])
	return h, nil
}

// ReadSnapshotFile loads and fully verifies a snapshot file.
func ReadSnapshotFile(path string) (Header, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, err
	}
	return DecodeSnapshotFile(data)
}

// PayloadHash returns the SHA-256 of a canonical payload.
func PayloadHash(payload []byte) [32]byte { return sha256.Sum256(payload) }
