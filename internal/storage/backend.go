package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned by Backend.Get, Stat and Delete for unknown keys.
var ErrNotFound = errors.New("storage: object not found")

// Capabilities describes what a backend guarantees, so callers can adapt
// (e.g. skip crash-consistency tests against backends that cannot provide
// durability in the first place).
type Capabilities struct {
	// Atomic: Put is all-or-nothing; a concurrent or post-crash reader never
	// observes a partially written object.
	Atomic bool
	// Persistent: objects survive process restart.
	Persistent bool
	// Modeled: reported latencies include a synthetic device model on top of
	// (or instead of) real I/O.
	Modeled bool
}

// ObjectInfo is backend object metadata.
type ObjectInfo struct {
	Key  string
	Size int64
}

// Backend is the pluggable object store under the checkpoint engine. Keys
// are slash-separated relative paths ("ckpt-…-full.qckpt",
// "chunks/ab/<hash>"). Implementations must be safe for concurrent use —
// the manager's write pipeline issues Puts from multiple workers.
type Backend interface {
	// Name identifies the backend in tables and logs.
	Name() string
	// Capabilities reports the backend's guarantees.
	Capabilities() Capabilities
	// Put stores data under key, creating intermediate namespaces as needed
	// and overwriting any existing object. Implementations must not retain
	// data after returning: the checkpoint pipeline recycles its buffers
	// through pools the moment Put comes back.
	Put(key string, data []byte) error
	// Get retrieves the object at key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// List returns the keys beginning with prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes the object at key, or returns ErrNotFound.
	Delete(key string) error
	// Stat returns object metadata, or ErrNotFound.
	Stat(key string) (ObjectInfo, error)
}

// RangeReader is an optional Backend extension for cheap partial reads
// (recovery scans only snapshot headers). GetRange returns up to n bytes
// starting at off; it may return fewer when the object is shorter.
type RangeReader interface {
	GetRange(key string, off, n int64) ([]byte, error)
}

// validRange rejects negative offsets and lengths; every GetRange
// implementation shares the contract (a past-EOF offset or zero length is
// an empty read, a negative one is caller error).
func validRange(off, n int64) error {
	if off < 0 || n < 0 {
		return fmt.Errorf("storage: invalid range off=%d n=%d", off, n)
	}
	return nil
}

// clampRange is that contract for an object already in memory: the
// [off, off+n) window of data, clamped at its end and empty past it. The
// result aliases data.
func clampRange(data []byte, off, n int64) []byte {
	size := int64(len(data))
	if off >= size {
		return nil
	}
	return data[off : off+min(n, size-off)]
}

// GetRange reads [off, off+n) of key, using the backend's RangeReader fast
// path when its capability set declares one and falling back to a full
// Get otherwise.
func GetRange(b Backend, key string, off, n int64) ([]byte, error) {
	if err := validRange(off, n); err != nil {
		return nil, err
	}
	if rr := Caps(b).Range; rr != nil {
		return rr.GetRange(key, off, n)
	}
	data, err := b.Get(key)
	if err != nil {
		return nil, err
	}
	return clampRange(data, off, n), nil
}

// ValidateKey rejects keys that could escape a filesystem root or collide
// with backend-internal names: empty keys, absolute paths, backslashes,
// and "." or ".." segments.
func ValidateKey(key string) error {
	if key == "" {
		return errors.New("storage: empty key")
	}
	// Segments are walked in place: the check runs at every layer of the
	// stack on every operation, so it must not allocate.
	start := 0
	for i := 0; i <= len(key); i++ {
		switch {
		case i < len(key) && key[i] == '\\':
			return fmt.Errorf("storage: malformed key %q", key)
		case i == len(key) || key[i] == '/':
			if seg := key[start:i]; seg == "" || seg == "." || seg == ".." {
				return fmt.Errorf("storage: malformed key %q", key)
			}
			start = i + 1
		}
	}
	return nil
}

// Local is the filesystem Backend: objects are files under a root
// directory, written with AtomicWriteFile, so every Put is crash-consistent
// (temp file + fsync + rename + directory sync).
type Local struct {
	root string
}

// NewLocal creates (if needed) a root directory and returns the backend.
func NewLocal(root string) (*Local, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create backend root: %w", err)
	}
	return &Local{root: root}, nil
}

// Root returns the backing directory.
func (l *Local) Root() string { return l.root }

// Name implements Backend.
func (l *Local) Name() string { return "local" }

// Capabilities implements Backend.
func (l *Local) Capabilities() Capabilities {
	return Capabilities{Atomic: true, Persistent: true}
}

func (l *Local) path(key string) (string, error) {
	if err := ValidateKey(key); err != nil {
		return "", err
	}
	return filepath.Join(l.root, filepath.FromSlash(key)), nil
}

// Put implements Backend.
func (l *Local) Put(key string, data []byte) error {
	p, err := l.path(key)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(p); dir != l.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("storage: create key dir: %w", err)
		}
	}
	return AtomicWriteFile(p, data, 0o644)
}

// Get implements Backend.
func (l *Local) Get(key string) ([]byte, error) {
	p, err := l.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("storage: read %s: %w", key, err)
	}
	return data, nil
}

// GetRange implements RangeReader without reading the whole file.
func (l *Local) GetRange(key string, off, n int64) ([]byte, error) {
	p, err := l.path(key)
	if err != nil {
		return nil, err
	}
	if err := validRange(off, n); err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("storage: open %s: %w", key, err)
	}
	defer f.Close()
	// n arrives unclamped from the wire: the buffer is sized by what the
	// file can still supply (nothing, past EOF), never by what was asked.
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: stat %s: %w", key, err)
	}
	buf := make([]byte, max(0, min(n, st.Size()-off)))
	m, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("storage: read %s: %w", key, err)
	}
	return buf[:m], nil
}

// List implements Backend. Temporary files left by an interrupted
// AtomicWriteFile (dot-prefixed) are invisible. Subtrees that cannot
// contain the prefix are pruned, so listing top-level snapshot keys stays
// cheap however many chunks live under chunks/.
func (l *Local) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && p != l.root {
			if d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if d.IsDir() {
			if p == l.root {
				return nil
			}
			// Descend only when keys under this directory can match.
			if strings.HasPrefix(prefix, key+"/") || strings.HasPrefix(key+"/", prefix) {
				return nil
			}
			return fs.SkipDir
		}
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: list: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Backend.
func (l *Local) Delete(key string) error {
	p, err := l.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return fmt.Errorf("storage: delete %s: %w", key, err)
	}
	return nil
}

// Stat implements Backend.
func (l *Local) Stat(key string) (ObjectInfo, error) {
	p, err := l.path(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	st, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return ObjectInfo{}, fmt.Errorf("storage: stat %s: %w", key, err)
	}
	return ObjectInfo{Key: key, Size: st.Size()}, nil
}

// Mem is the in-memory Backend used by tests and benchmarks: it isolates
// the checkpoint pipeline's CPU cost (encode, delta, compress, dedup) from
// filesystem noise, and gives the latency-model tier a zero-cost base.
type Mem struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{objects: make(map[string][]byte)}
}

// Name implements Backend.
func (m *Mem) Name() string { return "mem" }

// Capabilities implements Backend.
func (m *Mem) Capabilities() Capabilities {
	return Capabilities{Atomic: true, Persistent: false}
}

// Put implements Backend.
func (m *Mem) Put(key string, data []byte) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	m.mu.Lock()
	m.objects[key] = cp
	m.mu.Unlock()
	return nil
}

// Get implements Backend.
func (m *Mem) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	m.mu.RLock()
	data, ok := m.objects[key]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), data...), nil
}

// List implements Backend.
func (m *Mem) List(prefix string) ([]string, error) {
	m.mu.RLock()
	keys := make([]string, 0, len(m.objects))
	for k := range m.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	m.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Backend.
func (m *Mem) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(m.objects, key)
	return nil
}

// Stat implements Backend.
func (m *Mem) Stat(key string) (ObjectInfo, error) {
	if err := ValidateKey(key); err != nil {
		return ObjectInfo{}, err
	}
	m.mu.RLock()
	data, ok := m.objects[key]
	m.mu.RUnlock()
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return ObjectInfo{Key: key, Size: int64(len(data))}, nil
}
