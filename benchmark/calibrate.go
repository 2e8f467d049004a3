package main

import (
	"strconv"
	"time"
)

// calRefMs is CAL_REF_MS: the duration of one calibration slice on the
// reference box (2-vCPU shared Xeon @ 2.1 GHz, go1.24, GOMAXPROCS=1).
// Every host duration the benchmark reports is raw × calRefMs / cal, where
// cal is the mean of the slices measured before and after it, so a number
// reads as "milliseconds on the reference box" whatever the speed of the
// box, or of the minute, it ran in. (ISSUE.md wanted the constant in
// BENCHMARK.json; the driver's contract fixes that file's keys.)
const calRefMs = 2.0

// calibrator owns the fixed work of one calibration slice: lookups of
// string keys, picked by an LCG, in a hash table — hashing, compares,
// branches and small random reads, all of it cache-resident. The table is
// the calibrator's own and not a Go map: a map hashes with a seed drawn per
// process, so the "same" lookups collide differently in every run, and the
// slice read 1.81-1.97 ms across thirty processes on a quiet box where
// this table reads within 1 % (NOISE.md).
type calibrator struct {
	keys  []string
	table [calSlots]uint16 // open addressing; 0 = empty, else key index + 1
	lcg   uint64
	sink  uint64
	// factor is calRefMs over the latest slice: what a raw duration
	// measured right after it is multiplied by.
	factor float64
}

const (
	calKeys    = 1 << 10
	calSlots   = 1 << 12
	calLookups = 112_000
	calParts   = 4
)

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([]string, calKeys), lcg: 0x9e3779b97f4a7c15, factor: 1}
	for i := range c.keys {
		c.keys[i] = "polymer/calibrate/key-" + strconv.Itoa(1_000_000+i*7919)
		j := calHash(c.keys[i]) & (calSlots - 1)
		for c.table[j] != 0 {
			j = (j + 1) & (calSlots - 1)
		}
		c.table[j] = uint16(i + 1)
	}
	return c
}

// calHash mixes a key eight bytes at a time, the last eight overlapping
// the ones before when the length is no multiple of eight.
func calHash(k string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(k); i += 8 {
		i = min(i, len(k)-8)
		w := uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
			uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

func (c *calibrator) lookup(k string) uint16 {
	for j := calHash(k) & (calSlots - 1); ; j = (j + 1) & (calSlots - 1) {
		if t := c.table[j]; t == 0 || c.keys[t-1] == k {
			return t
		}
	}
}

// slice runs the fixed work once and returns how long it took. It
// allocates nothing and runs on the calling goroutine only.
//
// The work is done in calParts equal parts and the slice is calParts
// times the fastest part. The program under test allocates megabytes per
// op, so a garbage collection is often in flight when a slice starts, and
// with one P its phase changes stop this goroutine and run a mark worker
// in the gap: on serve-churn four slices in ten took 3.7 ms instead of
// 2.0 while the ops beside them took no longer. A stall of that kind
// lands in one part; a slow machine slows them all.
func (c *calibrator) slice() time.Duration {
	x, acc := c.lcg, uint64(0)
	best := time.Duration(1<<63 - 1)
	for part := 0; part < calParts; part++ {
		start := time.Now()
		for i := 0; i < calLookups/calParts; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			acc += uint64(c.lookup(c.keys[(x>>33)&(calKeys-1)]))
		}
		best = min(best, time.Since(start))
	}
	c.lcg, c.sink = x, c.sink+acc
	d := best * calParts
	c.factor = factorFor(d)
	return d
}

// steady is the median of three back-to-back slices, for where a single
// section (one probe round) hangs on the two readings beside it and one
// slice stretched by a stall would over-correct it.
func (c *calibrator) steady() time.Duration {
	a, b, d := c.slice(), c.slice(), c.slice()
	return max(min(a, b), min(max(a, b), d))
}

// factorFor is what a raw duration is multiplied by when the slice beside
// it took cal.
func factorFor(cal time.Duration) float64 {
	if cal <= 0 {
		return 1
	}
	return calRefMs * float64(time.Millisecond) / float64(cal)
}

// scale converts a raw duration to reference-box time given the
// calibration slices taken before and after it.
func scale(raw, calBefore, calAfter time.Duration) time.Duration {
	return time.Duration(float64(raw) * factorFor((calBefore+calAfter)/2))
}
