package storage

import (
	"fmt"
	"sync"
	"testing"
)

// The ingest benchmarks quantify the hash-once contract: BenchmarkIngest
// hashes its input to derive the address (what Put does), while
// BenchmarkIngestAddressed hands Ingest an address the caller already
// computed (the save pipeline hashes each framed chunk once to pin it
// against GC and threads the same digest through). The delta between the
// two is the SHA-256 pass the old double-hash path paid per chunk per
// save.

func benchChunk(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131) ^ byte(i>>7)
	}
	return data
}

func BenchmarkIngest(b *testing.B) {
	for _, size := range []int{8 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			cs := NewChunkStore(NewMem())
			data := benchChunk(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Put(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestParallel measures verified-dedup Ingest under full
// parallelism: the steady-state multi-tenant hot path is every job
// re-offering mostly-unchanged chunks, which reduces to a Stat plus a
// read-locked lookup in the verified set.
func BenchmarkIngestParallel(b *testing.B) {
	cs := NewChunkStore(NewMem())
	const distinct = 256
	chunks := make([][]byte, distinct)
	addrs := make([]string, distinct)
	for i := range chunks {
		chunks[i] = benchChunk(8 << 10)
		chunks[i][0] = byte(i)
		chunks[i][1] = byte(i >> 8)
		var err error
		if addrs[i], err = cs.Put(chunks[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 << 10)
	b.ResetTimer()
	// b.Fatal must not be called from RunParallel workers; collect the
	// first error and fail on the benchmark goroutine.
	var (
		errMu    sync.Mutex
		firstErr error
	)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := cs.Ingest(addrs[i%distinct], chunks[i%distinct], ClassDefault); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
		}
	})
	if firstErr != nil {
		b.Fatal(firstErr)
	}
}

func BenchmarkIngestAddressed(b *testing.B) {
	for _, size := range []int{8 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			cs := NewChunkStore(NewMem())
			data := benchChunk(size)
			addr := Hash(data)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.Ingest(addr, data, ClassDefault); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
