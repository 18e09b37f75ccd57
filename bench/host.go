package main

import (
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// hostCal is the fixed-buffer calibration printed beside every result,
// so a reader can tell host drift from code drift: if stall moved and
// these moved with it, the machine changed, not the program.
type hostCal struct {
	MemmoveGBps   float64
	SHA256MiBps   float64
	FlateMiBps    float64
	Fsync4kUs     float64
	LoopbackRTTUs float64
}

const calBufBytes = 4 << 20

// calBuf is float-like data: random mantissas under a narrow exponent
// range, the same texture the checkpoint payload has.
func calBuf() []byte {
	buf := make([]byte, calBufBytes)
	s := splitmix(42)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], s.next()>>12|0x3FF<<52)
	}
	return buf
}

// bestOf runs fn n times and returns the fastest: calibration wants the
// machine's capability, not its scheduling noise.
func bestOf(n int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0))
	}
	return best
}

func mibps(bytes int, d time.Duration) float64 {
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// calibrate measures the host in dir (the store's filesystem, for the
// fsync probe). It costs ≈0.1 s and is part of set-up.
func calibrate(dir string) (hostCal, error) {
	var h hostCal
	src := calBuf()
	dst := make([]byte, len(src))
	h.MemmoveGBps = mibps(len(src), bestOf(5, func() { copy(dst, src) })) * (1 << 20) / 1e9
	h.SHA256MiBps = mibps(len(src), bestOf(3, func() { sha256.Sum256(src) }))

	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		return h, err
	}
	h.FlateMiBps = mibps(len(src)/4, bestOf(2, func() {
		fw.Reset(io.Discard)
		fw.Write(src[:len(src)/4])
		fw.Close()
	}))

	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return h, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := src[:4096]
	var werr error
	h.Fsync4kUs = float64(bestOf(8, func() {
		if _, err := f.WriteAt(page, 0); err != nil {
			werr = err
		}
		if err := f.Sync(); err != nil {
			werr = err
		}
	}).Nanoseconds()) / 1e3
	if werr != nil {
		return h, fmt.Errorf("fsync probe: %w", werr)
	}

	rtt, err := loopbackRTT(64)
	if err != nil {
		return h, err
	}
	h.LoopbackRTTUs = float64(rtt.Nanoseconds()) / 1e3
	return h, nil
}

// loopbackRTT is the median of n one-byte TCP ping-pongs over 127.0.0.1.
func loopbackRTT(n int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	b := []byte{1}
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.Write(b); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, b); err != nil {
			c.Close()
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	c.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return time.Duration(median(samples)), nil
}

// tmpfsMagic is f_type of a tmpfs mount (linux/magic.h).
const tmpfsMagic = 0x01021994

// storeRoot picks where store directories live. Local fsyncs every Put,
// so on a shared disk the device, not the program, sets the stall; on
// tmpfs fsync is free and the numbers are the program's. /dev/shm is
// used when it is a writable tmpfs; otherwise the stores go under
// fallback (inside the checkout) and the result says so.
func storeRoot(fallback string) (dir, kind string, err error) {
	var st syscall.Statfs_t
	if syscall.Statfs("/dev/shm", &st) == nil && int64(st.Type) == tmpfsMagic {
		if dir, err := os.MkdirTemp("/dev/shm", "qckpt-bench-"); err == nil {
			return dir, "tmpfs:/dev/shm", nil
		}
	}
	if err := os.MkdirAll(fallback, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(fallback, "store-")
	return dir, "disk:" + fallback, err
}
