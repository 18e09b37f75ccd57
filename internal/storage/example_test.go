package storage_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/storage"
)

// ExampleBackend shows the backend contract every implementation obeys;
// the in-memory backend here is interchangeable with storage.NewLocal or
// a storage.Tier.
func ExampleBackend() {
	var b storage.Backend = storage.NewMem()
	if err := b.Put("runs/alpha/ckpt-1", []byte("snapshot bytes")); err != nil {
		log.Fatal(err)
	}
	data, err := b.Get("runs/alpha/ckpt-1")
	if err != nil {
		log.Fatal(err)
	}
	keys, err := b.List("runs/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("object:", string(data))
	fmt.Println("keys under runs/:", keys)
	fmt.Println("atomic:", b.Capabilities().Atomic)
	// Output:
	// object: snapshot bytes
	// keys under runs/: [runs/alpha/ckpt-1]
	// atomic: true
}

// ExampleTier projects checkpoint traffic onto a modeled storage tier: the
// write lands in the base backend, and the device model bills the transfer
// on a virtual clock.
func ExampleTier() {
	dev := storage.Device{Name: "slow-disk", Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	tier := storage.NewTier(storage.NewMem(), dev)
	if err := tier.Put("ckpt", make([]byte, 500_000)); err != nil {
		log.Fatal(err)
	}
	st := tier.Stats()
	fmt.Println("backend:", tier.Name())
	fmt.Println("modeled write time:", st.Modeled)
	fmt.Println("bytes written:", st.BytesWritten)
	// Output:
	// backend: tier:slow-disk+mem
	// modeled write time: 501ms
	// bytes written: 500000
}

// ExampleChunkStore shows content-addressed dedup on any backend:
// identical content is stored once, whatever key space it arrives from.
func ExampleChunkStore() {
	cs := storage.NewChunkStore(storage.NewMem())
	a1, err := cs.Put([]byte("shared state"))
	if err != nil {
		log.Fatal(err)
	}
	a2, err := cs.Put([]byte("shared state")) // same content again
	if err != nil {
		log.Fatal(err)
	}
	addrs, err := cs.List()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same address:", a1 == a2)
	fmt.Println("stored chunks:", len(addrs))
	// Output:
	// same address: true
	// stored chunks: 1
}
