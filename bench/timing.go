package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The speed of a shared host drifts by tens of percent over minutes, long
// enough to move every operation of a run together, so a median over one
// run cannot remove it. Each timed operation and each setup is therefore
// preceded by a calibration: the benchmark's own direct summation over a
// fixed particle set, on all CPUs, timed per pair. The time metrics are
// the wall times scaled to a reference host on which one calibration pair
// takes refPairNS: t * refPairNS / pairNS. A change to the code under test
// moves them as it moves wall time; a change in host speed, which slows
// the calibration too, mostly cancels. The raw wall times are printed on
// standard error.
const refPairNS = 1.9

// The calibration sum: the potential of 4096 fixed charges at 1024 of
// them, about 5 ms on two CPUs. It is written here, not taken from the
// repository's packages, so no change to the code under test can move it.
var calX, calY, calZ, calQ = func() (x, y, z, q []float64) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		x = append(x, rng.Float64())
		y = append(y, rng.Float64())
		z = append(z, rng.Float64())
		q = append(q, rng.Float64())
	}
	return x, y, z, q
}()

const calTargets = 1024

// calibrate returns the current wall time per pair of the calibration sum.
func calibrate() float64 {
	workers := runtime.GOMAXPROCS(0)
	out := make([]float64, calTargets)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < calTargets; i += workers {
				xi, yi, zi := calX[4*i], calY[4*i], calZ[4*i]
				var phi float64
				for j := range calX {
					dx, dy, dz := xi-calX[j], yi-calY[j], zi-calZ[j]
					if r2 := dx*dx + dy*dy + dz*dz; r2 > 0 {
						phi += calQ[j] / math.Sqrt(r2)
					}
				}
				out[i] = phi
			}
		}(w)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(calTargets*len(calX))
}

// sample is the cost of one operation or setup: its wall time, the CPU
// time the process spent over it summed across threads, the bytes it
// allocated, and the calibration pair time measured just before it.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
	pairNS    float64
}

// scaled returns the wall time in seconds scaled to the reference host.
func (s sample) scaled() float64 { return s.wall.Seconds() * refPairNS / s.pairNS }

type stopwatch struct {
	wall   time.Time
	cpu    time.Duration
	alloc  uint64
	pairNS float64
}

// startWatch calibrates, then starts timing.
func startWatch() stopwatch {
	ns := calibrate()
	return stopwatch{wall: time.Now(), cpu: cpuTime(), alloc: allocated(), pairNS: ns}
}

func (s stopwatch) stop() sample {
	return sample{wall: time.Since(s.wall), cpu: cpuTime() - s.cpu, alloc: allocated() - s.alloc, pairNS: s.pairNS}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated returns the bytes the process has allocated on the heap so
// far. ReadMemStats stops the world for some microseconds, but unlike
// runtime/metrics it flushes the per-CPU caches, so small allocations
// count at once.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
