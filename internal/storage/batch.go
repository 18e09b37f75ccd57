package storage

// Batched reads: the restore engine fetches many chunks per snapshot.
// BatchReader lets composite backends plan that work — Tiered asks each
// level, in one batch, only for what every warmer level missed; Coalescer
// serves hits without touching the base and batch-fills its misses; a
// remote client sends one request per window — while plain backends fall
// back to sequential Gets with identical semantics.

// BatchReader is an optional Backend extension for multi-object reads.
// GetBatch returns positional results: result i (or its error) corresponds
// to keys[i]. The call as a whole only fails per key, never wholesale.
type BatchReader interface {
	GetBatch(keys []string) ([][]byte, []error)
}

// GetBatch fetches several objects, using the backend's BatchReader fast
// path when available and sequential Gets otherwise. Results and errors
// are positional and the slices always have len(keys).
func GetBatch(b Backend, keys []string) ([][]byte, []error) {
	if br := Caps(b).Batch; br != nil {
		return br.GetBatch(keys)
	}
	out := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		out[i], errs[i] = b.Get(k)
	}
	return out, errs
}
