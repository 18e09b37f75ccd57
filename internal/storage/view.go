package storage

import (
	"sort"
	"strings"
)

// view is the re-keying kind of wrapper: every key resolves under prefix
// in the base, except keys in the optional shared namespace, which pass
// through unchanged. The checkpoint manager mounts its chunk store with
// one ("chunks/" inside the backend that holds the manifests), and a job
// of a multi-tenant store is one: manifests under jobs/<id>/, chunks in
// the namespace every tenant shares. Only Name and Capabilities are
// Forward's; every keyed method re-keys.
type view struct {
	Forward
	prefix string // joined in front of a key; ends with "/"
	shared string // namespace passed through; ends with "/", "" for none
}

// WithPrefix returns a view of base in which every key is transparently
// prefixed. The prefix must be a valid key and is joined with "/".
func WithPrefix(base Backend, prefix string) Backend {
	return &view{Forward: Forward{base}, prefix: namespace(prefix)}
}

// WithSharedPrefix is WithPrefix except that keys under shared keep their
// place in base, so several views over one base see the same objects
// there while each keeps the rest of its keys to itself.
func WithSharedPrefix(base Backend, prefix, shared string) Backend {
	return &view{Forward: Forward{base}, prefix: namespace(prefix), shared: namespace(shared)}
}

func namespace(prefix string) string { return strings.TrimSuffix(prefix, "/") + "/" }

// SharedBase returns the backend a WithSharedPrefix view shares its
// namespace with and the prefix the view's own keys carry there, and b
// itself (no prefix) for anything else: whoever sweeps the shared namespace
// through such a view must count references from the whole base. A plain
// WithPrefix view shares nothing, so what is reachable through it is all
// there is to scan.
func SharedBase(b Backend) (base Backend, prefix string) {
	if v, ok := b.(*view); ok && v.shared != "" {
		return v.Backend, v.prefix
	}
	return b, ""
}

func (v *view) inShared(key string) bool {
	return v.shared != "" && strings.HasPrefix(key, v.shared)
}

// full maps a key of the view to its key in the base, and is behind every
// keyed method. The view does not validate: a malformed key stays
// malformed under any prefix, and the base — which every conformance run
// holds to rejecting it — is where a bad key would do harm.
func (v *view) full(key string) string {
	if v.inShared(key) {
		return key
	}
	return v.prefix + key
}

// Caps implements CapsReporter. Occupancy is a whole-store figure a
// namespace must not report as its own, and orphan collection a
// whole-store sweep only a view sharing the swept namespace may pass on.
func (v *view) Caps() CapSet {
	c := ForwardCaps(v, v.Backend)
	c.Occupancy = nil
	if v.shared == "" {
		c.Orphans = nil
	}
	return c
}

func (v *view) Put(key string, data []byte) error {
	return v.PutClass(key, data, ClassDefault)
}

// PutClass keeps the class tag on the way down, so a tiered base still
// places a job's manifests and chunks by role.
func (v *view) PutClass(key string, data []byte, class WriteClass) error {
	return PutClass(v.Backend, v.full(key), data, class)
}

func (v *view) Get(key string) ([]byte, error) { return v.Backend.Get(v.full(key)) }
func (v *view) Delete(key string) error        { return v.Backend.Delete(v.full(key)) }

func (v *view) GetRange(key string, off, n int64) ([]byte, error) {
	return GetRange(v.Backend, v.full(key), off, n)
}

// GetBatch sends the whole batch to the base at once, so a tiered base
// overlaps its levels across both namespaces.
func (v *view) GetBatch(keys []string) ([][]byte, []error) {
	full := make([]string, len(keys))
	for i, k := range keys {
		full[i] = v.full(k)
	}
	return GetBatch(v.Backend, full)
}

func (v *view) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return v.IngestKeyedClass(key, addr, data, ClassDefault)
}

// IngestKeyedClass reports ok=false when the base is a plain backend.
func (v *view) IngestKeyedClass(key, addr string, data []byte, class WriteClass) (int, bool, error) {
	return TryIngestKeyedClass(v.Backend, v.full(key), addr, data, class)
}

// List merges the view's own keys with the shared namespace's, each side
// restricted to the part of prefix it can match.
func (v *view) List(prefix string) ([]string, error) {
	var out []string
	if !v.inShared(prefix) {
		keys, err := v.Backend.List(v.prefix + prefix)
		if err != nil {
			return nil, err
		}
		out = keys[:0]
		for _, k := range keys {
			// A key the view routes to the shared namespace is not
			// reachable under the prefix; listing it would name an object
			// Get cannot return.
			if k = strings.TrimPrefix(k, v.prefix); !v.inShared(k) {
				out = append(out, k)
			}
		}
	}
	// The shared side matches when one of prefix and shared extends the
	// other ("" ⊂ "chunks/" ⊂ "chunks/ab/"); the longer one is listed.
	if v.shared == "" || !strings.HasPrefix(v.shared, prefix) && !v.inShared(prefix) {
		return out, nil
	}
	if len(v.shared) > len(prefix) {
		prefix = v.shared
	}
	keys, err := v.Backend.List(prefix)
	if err != nil {
		return nil, err
	}
	out = append(out, keys...)
	sort.Strings(out)
	return out, nil
}

func (v *view) Stat(key string) (ObjectInfo, error) {
	info, err := v.Backend.Stat(v.full(key))
	if err != nil {
		return ObjectInfo{}, err
	}
	info.Key = key
	return info, nil
}
