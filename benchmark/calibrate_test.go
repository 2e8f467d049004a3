package main

import (
	"testing"
	"time"
)

func TestScale(t *testing.T) {
	ref := time.Duration(calRefMs * float64(time.Millisecond))
	for _, c := range []struct {
		raw, before, after, want time.Duration
	}{
		{10 * time.Millisecond, ref, ref, 10 * time.Millisecond},         // the reference box reads as itself
		{10 * time.Millisecond, 2 * ref, 2 * ref, 5 * time.Millisecond},  // a box half as fast
		{10 * time.Millisecond, ref / 2, ref / 2, 20 * time.Millisecond}, // a box twice as fast
		{10 * time.Millisecond, ref, 3 * ref, 5 * time.Millisecond},      // the mean of the two slices
		{10 * time.Millisecond, 0, 0, 10 * time.Millisecond},             // no calibration, no scaling
	} {
		if got := scale(c.raw, c.before, c.after); got != c.want {
			t.Errorf("scale(%v, %v, %v) = %v, want %v", c.raw, c.before, c.after, got, c.want)
		}
	}
}

func TestSliceIsFixedAllocationFreeWork(t *testing.T) {
	c := newCalibrator()
	c.slice()
	first := c.sink
	c.lcg = 0x9e3779b97f4a7c15
	c.sink = 0
	c.slice()
	if c.sink != first {
		t.Error("two slices from the same state did different work")
	}
	if allocs := testing.AllocsPerRun(3, func() { c.slice() }); allocs != 0 {
		t.Errorf("a calibration slice allocates %v times, want 0", allocs)
	}
	if c.factor <= 0 {
		t.Errorf("factor = %v after a slice", c.factor)
	}
}
