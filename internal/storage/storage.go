// Package storage provides the durable-storage substrate under the
// checkpoint engine. It is organized around the pluggable Backend
// interface (Put/Get/List/Delete/Stat over flat keys) with two base
// implementations — Local (crash-consistent atomic files) and Mem
// (in-memory, for tests and benchmarks) — and the composites that fan out
// over several: Tiered, an ordered hot→cold level stack with read-through
// fallback and explicit promote/demote object moves, and Replicated, a
// quorum set. Anything else between the engine and a leaf is one of three
// wrappers: the re-keying view (WithPrefix, WithSharedPrefix — view.go),
// Coalescer, the one read cache (a bounded LRU whose misses are
// single-flight, under recovery and under a server alike), and Observe,
// the one way to watch or fault a store: one Hook called before and after
// every keyed operation (observe.go). Tier, a Device latency/bandwidth
// cost model for tiers the test machine does not have, is such a hook. A
// content-addressed ChunkStore deduplicates identical content on any
// backend, built on the low-level crash-consistent file primitives the
// local backend uses.
package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// Hash returns the SHA-256 hex digest of data — the content address used by
// the chunk store and the whole-file integrity check in checkpoint files.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Device models a storage tier as fixed per-operation latency plus
// bandwidth. The benchmarks use it to project measured checkpoint sizes
// onto storage tiers the test machine does not have.
type Device struct {
	Name      string
	Latency   time.Duration // per-operation fixed cost
	Bandwidth float64       // bytes per second
}

// WriteCost returns the modeled time to persist n bytes.
func (d Device) WriteCost(n int) time.Duration {
	if n < 0 {
		panic("storage: negative write size")
	}
	if d.Bandwidth <= 0 {
		panic(fmt.Sprintf("storage: device %q has no bandwidth", d.Name))
	}
	return d.Latency + time.Duration(float64(n)/d.Bandwidth*float64(time.Second))
}

// ReadCost returns the modeled time to read n bytes (same model).
func (d Device) ReadCost(n int) time.Duration { return d.WriteCost(n) }

// Standard device tiers used across the benchmarks.
var (
	// DeviceNVMe models a local NVMe SSD.
	DeviceNVMe = Device{Name: "nvme", Latency: 100 * time.Microsecond, Bandwidth: 2e9}
	// DeviceNFS models a datacenter network filesystem.
	DeviceNFS = Device{Name: "nfs", Latency: 2 * time.Millisecond, Bandwidth: 200e6}
	// DeviceObject models a cloud object store (e.g. S3-class).
	DeviceObject = Device{Name: "object", Latency: 50 * time.Millisecond, Bandwidth: 100e6}
)

// DeviceByName resolves a standard tier name ("nvme", "nfs", "object") —
// the vocabulary of command-line tier flags.
func DeviceByName(name string) (Device, error) {
	switch name {
	case DeviceNVMe.Name:
		return DeviceNVMe, nil
	case DeviceNFS.Name:
		return DeviceNFS, nil
	case DeviceObject.Name:
		return DeviceObject, nil
	}
	return Device{}, fmt.Errorf("storage: unknown device tier %q (want nvme, nfs, object)", name)
}
