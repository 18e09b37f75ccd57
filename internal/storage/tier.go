package storage

import (
	"sync"
	"time"
)

// Tier wraps any Backend with a Device cost model: every operation runs
// against the base backend and additionally accrues the modeled latency and
// bandwidth cost on a virtual clock. This is how the benchmarks project
// checkpoint traffic onto storage tiers the test machine does not have
// (datacenter NFS, S3-class object stores) without sleeping — the same
// virtual-clock substitution the QPU simulator uses for queue delays.
type Tier struct {
	base Backend
	dev  Device

	mu    sync.Mutex
	stats TierStats
}

// TierStats aggregates the modeled activity of a Tier.
type TierStats struct {
	// Ops counts backend operations (Put/Get/List/Delete/Stat).
	Ops int64
	// BytesWritten and BytesRead count payload bytes moved by Put/Get.
	BytesWritten int64
	BytesRead    int64
	// Modeled is the total virtual time the device model charged;
	// ModeledWrite and ModeledRead split out the portions charged for
	// Puts and for Get/GetRange (metadata latency is in neither), so
	// experiments can separate the save-path bill from migration and
	// recovery traffic.
	Modeled      time.Duration
	ModeledWrite time.Duration
	ModeledRead  time.Duration
}

// NewTier wraps base with the dev cost model.
func NewTier(base Backend, dev Device) *Tier {
	return &Tier{base: base, dev: dev}
}

// Device returns the modeled device.
func (t *Tier) Device() Device { return t.dev }

// Stats returns a copy of the accumulated modeled costs.
func (t *Tier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *Tier) charge(cost time.Duration, written, read int64) {
	t.mu.Lock()
	t.stats.Ops++
	t.stats.Modeled += cost
	t.stats.BytesWritten += written
	t.stats.BytesRead += read
	if written > 0 {
		t.stats.ModeledWrite += cost
	} else if read > 0 {
		t.stats.ModeledRead += cost
	}
	t.mu.Unlock()
}

// Name implements Backend.
func (t *Tier) Name() string { return "tier:" + t.dev.Name + "+" + t.base.Name() }

// Capabilities implements Backend: the base backend's guarantees, flagged
// as latency-modeled.
func (t *Tier) Capabilities() Capabilities {
	c := t.base.Capabilities()
	c.Modeled = true
	return c
}

// Caps implements CapsReporter. Ranged reads and classed writes are
// native here regardless of the base — the device model charges for the
// bytes a ranged read actually returns, and a classed write still needs
// its write cost charged — so both handles always point at the tier.
// Everything else is whatever the base offers, which for a plain Tier
// over Local/Mem is nothing.
func (t *Tier) Caps() CapSet {
	return CapSet{Range: t, ClassWrite: t, Replication: Caps(t.base).Replication}
}

// Put implements Backend.
func (t *Tier) Put(key string, data []byte) error {
	return t.PutClass(key, data, ClassDefault)
}

// PutClass forwards a classed write to the base (falling back to plain
// Put when the base has no placement to apply), charging the modeled
// write cost on success.
func (t *Tier) PutClass(key string, data []byte, class WriteClass) error {
	if err := PutClass(t.base, key, data, class); err != nil {
		return err
	}
	t.charge(t.dev.WriteCost(len(data)), int64(len(data)), 0)
	return nil
}

// Get implements Backend, charging the modeled read cost on success.
func (t *Tier) Get(key string) ([]byte, error) {
	data, err := t.base.Get(key)
	if err != nil {
		return nil, err
	}
	t.charge(t.dev.ReadCost(len(data)), 0, int64(len(data)))
	return data, nil
}

// GetRange implements RangeReader, charging for the bytes actually read.
func (t *Tier) GetRange(key string, off, n int64) ([]byte, error) {
	data, err := GetRange(t.base, key, off, n)
	if err != nil {
		return nil, err
	}
	t.charge(t.dev.ReadCost(len(data)), 0, int64(len(data)))
	return data, nil
}

// List implements Backend; metadata operations are charged fixed latency.
func (t *Tier) List(prefix string) ([]string, error) {
	keys, err := t.base.List(prefix)
	if err != nil {
		return nil, err
	}
	t.charge(t.dev.Latency, 0, 0)
	return keys, nil
}

// Delete implements Backend.
func (t *Tier) Delete(key string) error {
	if err := t.base.Delete(key); err != nil {
		return err
	}
	t.charge(t.dev.Latency, 0, 0)
	return nil
}

// Stat implements Backend.
func (t *Tier) Stat(key string) (ObjectInfo, error) {
	info, err := t.base.Stat(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	t.charge(t.dev.Latency, 0, 0)
	return info, nil
}
