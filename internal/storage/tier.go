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
// virtual-clock substitution the QPU simulator uses for queue delays. The
// bill is one Hook (charge) on an Observed base.
type Tier struct {
	*Observed
	dev Device

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
	// ModeledWrite splits out the portion charged for Puts, so experiments
	// can separate the save-path bill from migration and recovery traffic.
	Modeled      time.Duration
	ModeledWrite time.Duration
}

// NewTier wraps base with the dev cost model.
func NewTier(base Backend, dev Device) *Tier {
	t := &Tier{dev: dev}
	t.Observed = Observe(base, t.charge)
	return t
}

// Device returns the modeled device.
func (t *Tier) Device() Device { return t.dev }

// Stats returns a copy of the accumulated modeled costs.
func (t *Tier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// charge is the Tier's Hook: a successful write pays the device's write
// cost for its bytes, a read (whole or ranged) the read cost for the bytes
// it returned, anything else the fixed latency. A failed op charges nothing.
func (t *Tier) charge(op Op) (int64, error) {
	if !op.After || op.Err != nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Ops++
	switch op.Kind {
	case OpPut:
		cost := t.dev.WriteCost(int(op.N))
		t.stats.Modeled += cost
		t.stats.BytesWritten += op.N
		if op.N > 0 {
			t.stats.ModeledWrite += cost
		}
	case OpGet, OpGetRange:
		t.stats.Modeled += t.dev.ReadCost(int(op.N))
		t.stats.BytesRead += op.N
	default:
		t.stats.Modeled += t.dev.Latency
	}
	return 0, nil
}

// Name implements Backend.
func (t *Tier) Name() string { return "tier:" + t.dev.Name + "+" + t.Backend.Name() }

// Capabilities implements Backend: the base backend's guarantees, flagged
// as latency-modeled.
func (t *Tier) Capabilities() Capabilities {
	c := t.Backend.Capabilities()
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
	return CapSet{Range: t, ClassWrite: t, Replication: Caps(t.Backend).Replication}
}
