package main

import "testing"

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{1000, 99, 99}, // exactly 10 beyond
		{2000, 99, 99},
		{999, 99, 100 * 989.0 / 999},
		{500, 99, 98},
		{100, 90, 90},
		{50, 90, 80},
		{25, 90, 60},
		{12, 99, 50}, // never below the median
		{5, 99, 50},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.used {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 500)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1..500, descending
	}
	v, used := tail(samples, 99)
	if used != 98 || v != 490 {
		t.Errorf("tail of 1..500 at p99 = %g (p%g), want 490 (p98): ten samples above it", v, used)
	}
	if v, used := tail(samples, 50); used != 50 || v != 250 {
		t.Errorf("median of 1..500 = %g (p%g), want 250 (p50)", v, used)
	}
	if samples[0] != 500 {
		t.Error("tail sorted its argument in place")
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if median(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty median and zero denominator must read 0")
	}
}
