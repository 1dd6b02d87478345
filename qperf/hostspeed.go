package main

import (
	"cmp"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is a few vCPUs of a shared machine whose per-core
// speed drifts with what the neighbours run: the same CPU-bound loop takes
// up to twice the CPU time from one minute to the next, with no steal
// time to show for it. Every timing would follow that drift. So while a
// pass runs, a hostMeter times a fixed kernel — copying and sorting the
// same 32 Ki float64s, code that is neither in the program nor in its
// inputs — on its own OS thread every hostPeriod, counting the thread's
// CPU time (not wall time, so waiting for a CPU does not count). A
// stretch's slowdown is its median kernel time over refKernelMs, and the
// end-to-end timings are reported at reference speed: rates times the
// slowdown, times divided by it. Contention for a CPU (another busy
// process, the sensitivity handicap) does not lengthen the kernel's CPU
// time and is not taken out.
const (
	hostPeriod = 200 * time.Millisecond
	// refKernelMs is about the kernel's median CPU time on a 2-vCPU Intel
	// Xeon (Sapphire Rapids) KVM guest.
	refKernelMs = 4.0
	// minHostSamples is the fewest samples a slowdown is taken over; a
	// stretch with fewer borrows the nearest ones around it.
	minHostSamples = 5
)

// hostMeter holds the kernel times sampled while a pass runs, each with
// the time it was taken.
type hostMeter struct {
	mu   sync.Mutex
	at   []time.Time
	ms   []float64
	stop chan struct{}
	done chan struct{}
}

func startHostMeter() *hostMeter {
	h := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *hostMeter) run() {
	defer close(h.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := rand.New(rand.NewPCG(1, 2))
	src := make([]float64, 32<<10)
	for i := range src {
		src[i] = r.Float64()
	}
	buf := make([]float64, len(src))
	t := time.NewTicker(hostPeriod)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
		}
		c0 := threadCPU()
		copy(buf, src)
		slices.Sort(buf)
		ms := float64(threadCPU()-c0) / 1e6
		h.record(time.Now(), ms)
	}
}

func (h *hostMeter) record(at time.Time, ms float64) {
	h.mu.Lock()
	h.at, h.ms = append(h.at, at), append(h.ms, ms)
	h.mu.Unlock()
}

// close stops the sampling and waits for it to end.
func (h *hostMeter) close() {
	close(h.stop)
	<-h.done
}

// slowdown is the median kernel time of the samples taken in [from, to]
// over refKernelMs, or of the minHostSamples samples nearest to it when it
// holds fewer; 1 when there are no samples at all.
func (h *hostMeter) slowdown(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.ms) == 0 {
		return 1
	}
	dist := make([]time.Duration, len(h.at))
	idx := make([]int, len(h.at))
	inside := 0
	for i, t := range h.at {
		idx[i] = i
		switch {
		case t.Before(from):
			dist[i] = from.Sub(t)
		case t.After(to):
			dist[i] = t.Sub(to)
		default:
			inside++
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(dist[a], dist[b]) })
	take := min(len(idx), max(inside, minHostSamples))
	ms := make([]float64, take)
	for i := range ms {
		ms[i] = h.ms[idx[i]]
	}
	return median(ms) / refKernelMs
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
