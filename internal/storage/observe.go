package storage

import "errors"

// OpKind is the kind of operation a Hook sees.
type OpKind uint8

const (
	OpPut      OpKind = iota // Put and PutClass
	OpGet                    // Get, and each key of a GetBatch
	OpGetRange               // GetRange
	OpList                   // List; Key is the prefix
	OpDelete                 // Delete
	OpStat                   // Stat
	OpIngest                 // IngestKeyed and IngestKeyedClass
)

// Op is what a Hook sees of one operation. The before-call carries Kind,
// Key and, for a write or an ingest, Data. The after-call has After set
// and adds the outcome: N, the bytes moved (written, read, or newly
// ingested; 0 for List, Delete and Stat), for a read Data, the bytes
// read, Err, and Stamp, what the before-call returned.
type Op struct {
	Kind  OpKind
	After bool
	Key   string
	Data  []byte
	N     int64
	Err   error
	Stamp int64
}

// Hook watches a store: Observe calls it before and after every keyed
// operation, on the caller's goroutine, so it must be safe for concurrent
// use. An error from the before-call fails the operation without issuing
// it, and no after-call follows: that is how faults are injected. The
// stamp it returns comes back in the after-call, which pairs the two calls
// however many operations on one key overlap. The after-call's results are
// ignored.
type Hook func(op Op) (stamp int64, err error)

// Observed is the one wrapper that watches or faults a store. It declares
// its base's capabilities (ForwardCaps), so every fast path stays, and each
// keyed operation on any path reaches the hook; orphan collection and
// occupancy pass through unobserved. A type that embeds it to keep the
// hook's state (Tier, consistency.Recorder) restates Caps so that the
// handles are itself.
type Observed struct {
	Backend
	hook Hook
}

// Observe wraps b so that hook sees every keyed operation on it.
func Observe(b Backend, hook Hook) *Observed { return &Observed{b, hook} }

// Caps implements CapsReporter.
func (o *Observed) Caps() CapSet { return ForwardCaps(o, o.Backend) }

func (o *Observed) CollectOrphans() (int, int64, bool, error) { return TryCollectOrphans(o.Backend) }

// Occupancy reports the base's, and fails on a base that reports none.
func (o *Observed) Occupancy() ([]LevelOccupancy, error) {
	if oc := Caps(o.Backend).Occupancy; oc != nil {
		return oc.Occupancy()
	}
	return nil, errors.New("storage: " + o.Name() + " reports no occupancy")
}

// run makes op's before-call and, unless the hook refuses the op, does
// it and makes the after-call; do returns the bytes the op moved and, for
// a read, the bytes read.
func (o *Observed) run(op Op, do func() (n int64, read []byte, err error)) error {
	if op.Stamp, op.Err = o.hook(op); op.Err != nil {
		return op.Err
	}
	n, read, err := do()
	op.After, op.N, op.Err = true, n, err
	if read != nil {
		op.Data = read
	}
	o.hook(op)
	return err
}

func (o *Observed) Put(key string, data []byte) error { return o.PutClass(key, data, ClassDefault) }

func (o *Observed) PutClass(key string, data []byte, class WriteClass) error {
	return o.run(Op{Kind: OpPut, Key: key, Data: data}, func() (int64, []byte, error) {
		return int64(len(data)), nil, PutClass(o.Backend, key, data, class)
	})
}

func (o *Observed) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return o.IngestKeyedClass(key, addr, data, ClassDefault)
}

// IngestKeyedClass takes a refused ingest over, and fails it.
func (o *Observed) IngestKeyedClass(key, addr string, data []byte, class WriteClass) (n int, ok bool, err error) {
	ok = true
	err = o.run(Op{Kind: OpIngest, Key: key, Data: data}, func() (int64, []byte, error) {
		n, ok, err = TryIngestKeyedClass(o.Backend, key, addr, data, class)
		return int64(n), nil, err
	})
	return n, ok, err
}

func (o *Observed) Get(key string) (data []byte, err error) {
	err = o.run(Op{Kind: OpGet, Key: key}, func() (int64, []byte, error) {
		data, err = o.Backend.Get(key)
		return int64(len(data)), data, err
	})
	return data, err
}

func (o *Observed) GetRange(key string, off, n int64) (data []byte, err error) {
	err = o.run(Op{Kind: OpGetRange, Key: key}, func() (int64, []byte, error) {
		data, err = GetRange(o.Backend, key, off, n)
		return int64(len(data)), data, err
	})
	return data, err
}

// GetBatch is one OpGet per key; the keys the hook lets through go to the
// base in one batch.
func (o *Observed) GetBatch(keys []string) ([][]byte, []error) {
	out, errs, stamps := make([][]byte, len(keys)), make([]error, len(keys)), make([]int64, len(keys))
	pass := make([]string, 0, len(keys))
	for i, k := range keys {
		if stamps[i], errs[i] = o.hook(Op{Kind: OpGet, Key: k}); errs[i] == nil {
			pass = append(pass, k)
		}
	}
	data, berrs := GetBatch(o.Backend, pass)
	for i, j := 0, 0; j < len(pass); i++ {
		if errs[i] == nil {
			out[i], errs[i] = data[j], berrs[j]
			o.hook(Op{Kind: OpGet, After: true, Key: keys[i], Data: data[j], N: int64(len(data[j])), Err: berrs[j], Stamp: stamps[i]})
			j++
		}
	}
	return out, errs
}

func (o *Observed) List(prefix string) (keys []string, err error) {
	err = o.run(Op{Kind: OpList, Key: prefix}, func() (int64, []byte, error) {
		keys, err = o.Backend.List(prefix)
		return 0, nil, err
	})
	return keys, err
}

func (o *Observed) Delete(key string) error {
	return o.run(Op{Kind: OpDelete, Key: key}, func() (int64, []byte, error) { return 0, nil, o.Backend.Delete(key) })
}

func (o *Observed) Stat(key string) (info ObjectInfo, err error) {
	err = o.run(Op{Kind: OpStat, Key: key}, func() (int64, []byte, error) {
		info, err = o.Backend.Stat(key)
		return 0, nil, err
	})
	return info, err
}
