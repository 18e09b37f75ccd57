package api

import (
	"encoding/binary"
	"io"
)

// Wire protocol v1 (DESIGN.md §11). Paths, headers and body shapes are
// shared by internal/server and internal/remote so the two cannot drift.
const (
	// PathObjects prefixes the object plane: GET/HEAD/PUT/DELETE
	// /v1/o/<key>, with ?off=&n= selecting a range read on GET.
	PathObjects = "/v1/o/"
	// PathChunks prefixes chunk uploads: PUT /v1/c/<key>.
	PathChunks = "/v1/c/"
	// PathHas is the address-first dedup round: POST {keys} → {have}.
	PathHas = "/v1/has"
	// PathBatch is the multi-get fan-in: POST {keys} → binary records.
	PathBatch = "/v1/batch"
	// PathList lists keys: GET /v1/list?prefix=.
	PathList = "/v1/list"
	// PathCaps, PathStats, PathJobs and PathGC are service-wide.
	PathCaps  = "/v1/caps"
	PathStats = "/v1/stats"
	PathJobs  = "/v1/jobs"
	PathGC    = "/v1/gc"
)

// TenantHeader names the client's admission-control tenant; absent means
// DefaultTenant. One tenant's saturation throttles only that tenant.
const TenantHeader = "Qckpt-Tenant"

// ClassHeader carries the write class of a PUT (storage.WriteClass by
// name: "manifest", "anchor", "delta"); absent means default.
// The server threads it into the store so a tiered service backend can
// place remote writes exactly like local ones.
const ClassHeader = "Qckpt-Class"

// DefaultTenant buckets clients that do not identify themselves.
const DefaultTenant = "default"

// Error codes carried in ErrorBody.Code; the client maps them back to
// sentinel errors (CodeNotFound → storage.ErrNotFound).
const (
	CodeNotFound   = "not_found"
	CodeBadRequest = "bad_request"
	CodeThrottled  = "throttled"
	CodeInternal   = "internal"
)

// ErrorBody is the JSON error envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// KeysRequest is the body of PathHas and PathBatch.
type KeysRequest struct {
	Keys []string `json:"keys"`
}

// HasResponse answers PathHas positionally: Have[i] corresponds to
// request Keys[i].
type HasResponse struct {
	Have []bool `json:"have"`
}

// IngestResponse answers a chunk upload with the bytes newly written —
// 0 announces a server-side dedup hit.
type IngestResponse struct {
	Written int `json:"written"`
}

// ListResponse answers PathList and PathJobs.
type ListResponse struct {
	Keys []string `json:"keys"`
}

// GCResponse answers PathGC.
type GCResponse struct {
	Removed   int   `json:"removed"`
	Reclaimed int64 `json:"reclaimed"`
}

// Batch framing: PathBatch responds with one binary record per requested
// key, in request order — a status byte, a big-endian uint32 payload
// length, then the payload (object bytes on StatusOK, an error message
// otherwise). Binary framing keeps bulk restores at wire size; a JSON
// body would base64-inflate every chunk by a third.
const (
	BatchStatusOK       = 0
	BatchStatusNotFound = 1
	BatchStatusError    = 2
)

// WriteBatchRecord frames one batch result onto w.
func WriteBatchRecord(w io.Writer, status byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = status
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// CutBatchRecord cuts the first batch record off b without copying: the
// payload is b's own bytes, capped at its length so an append cannot run
// into the next record, and rest is what follows it. ok is false, and b
// untouched, when b holds no whole record — under 5 bytes, or a length
// prefix claiming more bytes than b has — so a hostile prefix costs
// nothing.
func CutBatchRecord(b []byte) (status byte, payload, rest []byte, ok bool) {
	if len(b) < 5 {
		return 0, nil, b, false
	}
	end := 5 + uint64(binary.BigEndian.Uint32(b[1:5]))
	if end > uint64(len(b)) {
		return 0, nil, b, false
	}
	return b[0], b[5:end:end], b[end:], true
}
