// Package nondeterm is the analysistest corpus for the nondeterm
// analyzer: nondeterminism sources reachable from routing code.
package nondeterm

import (
	"math/rand"
	"time"

	"overcell/internal/analysis/testdata/src/nondeterm/helper"
)

type event struct{ note string }

type tracer struct{ events []event }

func (t *tracer) Emit(e event) { t.events = append(t.events, e) }

// routeStart stamps the wall clock directly.
func routeStart() time.Time {
	return time.Now() // want `use of time.Now in routing code`
}

// elapsed measures with the wall clock.
func elapsed(t0 time.Time) int64 {
	return int64(time.Since(t0)) // want `use of time.Since in routing code`
}

// clockValue leaks the wall clock as a function value.
func clockValue() func() time.Time {
	return time.Now // want `use of time.Now in routing code`
}

// viaJitter draws from the global unseeded source.
func viaJitter() int {
	return rand.Intn(3) // want `call to rand.Intn draws from the global unseeded source`
}

// stamped reaches the wall clock through a helper in another package:
// the fact arrives with helper's export data.
func stamped() int64 {
	return helper.Stamp() // want `call to Stamp, which reads time.Now`
}

// stampedVia adds one more hop inside the helper package.
func stampedVia() int64 {
	return helper.StampVia() // want `call to StampVia, which calls Stamp, which reads time.Now`
}

// emitAll iterates a map and emits events in iteration order.
func emitAll(tr *tracer, byNet map[int]event) {
	for _, e := range byNet { // want `range over map byNet emits events in iteration order`
		tr.Emit(e)
	}
}

// merge mutates long-lived state in map iteration order.
func merge(dst []event, byNet map[int]event) {
	for id, e := range byNet { // want `range over map byNet mutates state that outlives the loop`
		dst[id] = e
	}
}

// collect gathers goroutine results in channel arrival order.
func collect(jobs []int) []int {
	ch := make(chan int)
	for _, j := range jobs {
		go func() { ch <- j * j }()
	}
	out := make([]int, 0, len(jobs))
	for range jobs {
		v := <-ch // want `goroutine results collected in channel arrival order`
		out = append(out, v)
	}
	return out
}

// A directive whose analyzer has been removed from the suite is no
// longer part of the vocabulary, so a leftover one is reported instead
// of silently waiving nothing.
var leftover = 0 /* want `unknown directive //oc:workersafe \(known: hotpath, clock-ok\)` */ //oc:workersafe slot state re-armed before spawn
