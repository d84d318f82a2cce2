package main

import (
	"bufio"
	"fmt"
	"os"
	rm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// closeInto closes c and reports its error through *err unless an
// earlier error is already there; deferred by functions that own c.
func closeInto(c interface{ close() error }, err *error) {
	if cerr := c.close(); *err == nil {
		*err = cerr
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted. It is 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mib converts bytes to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapCounter reads the runtime's cumulative heap allocation counters
// without stopping the world, so it can bracket every operation.
type heapCounter struct{ buf [2]rm.Sample }

func newHeapCounter() *heapCounter {
	var h heapCounter
	h.buf[0].Name = "/gc/heap/allocs:bytes"
	h.buf[1].Name = "/gc/heap/allocs:objects"
	return &h
}

// read returns the bytes and objects allocated so far.
func (h *heapCounter) read() (bytes, objects uint64) {
	rm.Read(h.buf[:])
	return h.buf[0].Value.Uint64(), h.buf[1].Value.Uint64()
}

// rssEvery is the resident-set sampling interval of a timed run.
const rssEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set size every rssEvery
// on its own goroutine until finish is called.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // MiB
	err        error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			rss, err := residentBytes()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mib(rss))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// residentBytes returns the process's current resident set size.
func residentBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("resident set: malformed /proc/self/statm")
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * uint64(os.Getpagesize()), nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in
// bytes.
func peakRSS() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
