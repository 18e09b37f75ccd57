package storage

import "errors"

// Forward is the pass-through kind of wrapper: a type that embeds it is a
// Backend handing every call to its base unchanged, and states only the
// methods it intercepts. The required methods come from the embedded
// Backend; each optional one goes through the helper that owns its
// fallback, so it is safe to call whatever the base offers.
//
// Two rules keep an interception from being bypassed. A wrapper that
// intercepts the classed form of a write (PutClass, IngestKeyedClass)
// defines the classless one as a one-line alias of it, because Forward's
// own Put and IngestKeyed go straight to the base. And Forward declares no
// optional capability: until the wrapper defines Caps (as ForwardCaps),
// callers reach it through the required methods only, which loses fast
// paths but never skips the wrapper.
type Forward struct{ Backend }

func (f Forward) Caps() CapSet { return CapSet{} }

func (f Forward) PutClass(key string, data []byte, class WriteClass) error {
	return PutClass(f.Backend, key, data, class)
}
func (f Forward) GetRange(key string, off, n int64) ([]byte, error) {
	return GetRange(f.Backend, key, off, n)
}
func (f Forward) GetBatch(keys []string) ([][]byte, []error) { return GetBatch(f.Backend, keys) }
func (f Forward) IngestKeyed(key, addr string, data []byte) (int, bool, error) {
	return TryIngestKeyed(f.Backend, key, addr, data)
}
func (f Forward) IngestKeyedClass(key, addr string, data []byte, class WriteClass) (int, bool, error) {
	return TryIngestKeyedClass(f.Backend, key, addr, data, class)
}
func (f Forward) CollectOrphans() (int, int64, bool, error) { return TryCollectOrphans(f.Backend) }
func (f Forward) Occupancy() ([]LevelOccupancy, error) {
	if oc := Caps(f.Backend).Occupancy; oc != nil {
		return oc.Occupancy()
	}
	return nil, errors.New("storage: " + f.Name() + " reports no occupancy")
}

// ForwardCaps is the one rule for what a wrapper declares: each optional
// capability its base offers and w has the method for, the handle pointing
// at w so no call skips the wrapper, and the base's replication geometry
// showing through. A wrapper that serves a capability natively, whatever
// its base, sets that handle on the result.
func ForwardCaps(w, base Backend) CapSet {
	b := Caps(base)
	c := CapSet{Replication: b.Replication}
	if b.Range != nil {
		c.Range, _ = w.(RangeReader)
	}
	if b.Batch != nil {
		c.Batch, _ = w.(BatchReader)
	}
	if b.Ingest != nil {
		c.Ingest, _ = w.(AddressedIngester)
	}
	if b.ClassWrite != nil {
		c.ClassWrite, _ = w.(ClassWriter)
	}
	if b.ClassIngest != nil {
		c.ClassIngest, _ = w.(KeyedClassIngester)
	}
	if b.Orphans != nil {
		c.Orphans, _ = w.(OrphanCollector)
	}
	if b.Occupancy != nil {
		c.Occupancy, _ = w.(OccupancyReporter)
	}
	return c
}
