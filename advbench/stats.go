package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dblayout"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 is the median). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler records the live heap (the bytes a garbage collection marked
// live) at the end of every collection while it runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample // owned by the sampling goroutine until done
}

type heapSample struct {
	at   time.Time
	live float64 // MiB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var cycles uint64
	read := func() {
		metrics.Read(m)
		if m[0].Value.Kind() != metrics.KindUint64 || m[1].Value.Kind() != metrics.KindUint64 {
			return
		}
		if c := m[0].Value.Uint64(); c != cycles || len(h.samples) == 0 {
			cycles = c
			h.samples = append(h.samples, heapSample{time.Now(), float64(m[1].Value.Uint64()) / (1 << 20)})
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// halt stops the sampler and waits for it.
func (h *heapSampler) halt() {
	close(h.stop)
	<-h.done
}

// peakMB is the highest live heap in [from, to]: the collections that ended
// in the window, and the live heap carried into it from the one before.
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	peak := 0.0
	for _, s := range h.samples {
		if s.at.After(to) {
			break
		}
		if s.at.Before(from) {
			peak = s.live // the latest collection before the window
			continue
		}
		peak = math.Max(peak, s.live)
	}
	return peak
}

// window is one timed stretch of a run, such as one advise call.
type window struct{ from, to time.Time }

// medianPeakMB is the median over the windows of each window's peak live
// heap: a high-water mark that one unlucky collection cannot move.
func (h *heapSampler) medianPeakMB(ws []window) float64 {
	peaks := make([]float64, len(ws))
	for i, w := range ws {
		peaks[i] = h.peakMB(w.from, w.to)
	}
	return quantile(peaks, 0.5)
}

// cpuTime is the CPU time (user + system) the process has used so far. On a
// shared virtual machine it is steadier than wall time: time the host
// steals from the guest's CPUs is not charged to the process (though a
// loaded host still slows the CPU time of the same work by up to a third).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupClock times a workload's set-up in wall and CPU time. setup_s is
// the CPU time: the set-up does the same work on every run, and on a shared
// virtual machine the host steals CPU in episodes lasting minutes, which
// moved its wall time between 6.5 s and 15 s; see cpuTime.
type setupClock struct {
	wall time.Time
	cpu  time.Duration
}

func startSetup() setupClock { return setupClock{time.Now(), cpuTime()} }

func (c setupClock) stop() setupTimes {
	return setupTimes{wall: time.Since(c.wall), cpu: cpuTime() - c.cpu}
}

type setupTimes struct{ wall, cpu time.Duration }

// set reports a set-up: setup_s untraced, bench.setup_wall_s traced.
func (t setupTimes) set(r *run) {
	if r.traced {
		r.set("bench.setup_wall_s", t.wall.Seconds())
	} else {
		r.set("setup_s", t.cpu.Seconds())
	}
}

// digest fingerprints a layout bit for bit.
func digest(l *dblayout.Layout) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.M; j++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(l.At(i, j)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
