package main

import (
	"fmt"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/global"
	"overcell/internal/obs"
	"overcell/internal/robust"
)

// table1Params returns the generator parameters of the paper's three
// Table 1 instances, in the order ami33, xerox, ex3: exactly those of
// gen.Ami33Like, gen.XeroxLike and gen.Ex3Like, which gen does not
// export. TestTable1Params holds them equal.
func table1Params() []gen.Params {
	fill := func(n, pins, each int) []int {
		a := make([]int, n)
		for i := range a {
			a[i] = each
		}
		for i := 0; i < pins-n*each; i++ {
			a[i]++
		}
		return a
	}
	return []gen.Params{{
		Name: "ami33", Seed: 33,
		Rows: 4, Cells: 33,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SensitivePerMille: 90,
		SignalNets:        119,
		LevelANets:        []int{45, 44, 44, 44},
		RailHalfWidth:     6,
	}, {
		Name: "xerox", Seed: 10,
		Rows: 3, Cells: 10,
		CellWMin: 900, CellWMax: 1400, CellHMin: 500, CellHMax: 800,
		RowGap: 96, Margin: 64,
		SensitivePerMille: 100,
		SignalNets:        182,
		LevelANets:        fill(21, 193, 9),
		RailHalfWidth:     8,
	}, {
		Name: "ex3", Seed: 3,
		Rows: 5, Cells: 28,
		CellWMin: 280, CellWMax: 520, CellHMin: 160, CellHMax: 260,
		RowGap: 128, Margin: 48,
		SensitivePerMille: 70,
		SignalNets:        184,
		LevelANets:        fill(56, 181, 3),
		RailHalfWidth:     6,
	}}
}

// denseParams is the rip-up family: three rows of twelve small cells
// carrying 90 to 112 signal nets and two 4-pin level A nets, dense
// enough that about 30% of instances trip a per-net budget of netBudget
// nodes, and those need rip-up and window escalation.
func denseParams(seed int64) gen.Params {
	return gen.Params{
		Name: "dense", Seed: seed,
		Rows: 3, Cells: 12,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SensitivePerMille: 90,
		SignalNets:        90 + int(uint64(seed)%23),
		LevelANets:        []int{4, 4},
		RailHalfWidth:     6,
	}
}

// tinyParams is the service family: two rows of six cells and eleven
// nets, so routing takes about a millisecond and the service layers
// around it do most of the work.
func tinyParams(seed int64) gen.Params {
	return gen.Params{
		Name: "tiny", Seed: seed,
		Rows: 2, Cells: 6,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SignalNets:    10,
		LevelANets:    []int{3},
		RailHalfWidth: 6,
	}
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// drawSeed derives the generator seed of one instance from the run
// seed, the op index, the instance's slot in the op and how many
// earlier draws for that slot were rejected.
func drawSeed(seed int64, op, slot, redraw int) int64 {
	h := mix(uint64(seed) + 0x9e3779b97f4a7c15)
	for _, v := range []int{op, slot, redraw} {
		h = mix(h ^ uint64(v))
	}
	return int64(h >> 1)
}

// instance is one generated routing problem with the router-independent
// yardsticks its quality is normalised by.
type instance struct {
	inst *gen.Instance
	// hpwl is the sum of the nets' half-perimeters and cellArea the sum
	// of the cells' areas, both at the generator's zero-channel
	// placement; nets counts the nets.
	hpwl, cellArea int64
	nets           int
	// redraws counts the rejected draws before this one.
	redraws int
	// screenFlow names the flow the draw was screened with and
	// screenHash is the flow.Hash of that route, which every timed
	// route of the same flow must reproduce. Both are empty for an
	// unscreened family.
	screenFlow, screenHash string
}

// maxRedraws bounds the draws tried for one instance slot.
const maxRedraws = 16

// netBudget is a per-net search budget of about twice the largest
// effort measured for a net that routes without the relaxed
// examine-once retry (2,285 nodes), so it cuts only that retry.
const netBudget = 5000

// family draws instance slot of op at a run seed.
type family func(seed int64, op, slot int) (instance, error)

// table1Family draws slot k as an instance of Table 1 class
// classes[k] (0 ami33, 1 xerox, 2 ex3), screened with screen. At seed
// 0 the first op is exactly the paper's instances of those classes. A
// draw the global router cannot fit into the rows' feedthroughs is no
// valid two-layer design (about 6% of xerox draws); it is redrawn, so
// that the baseline flow never fails, and the redraws are counted.
func table1Family(screen *call, classes ...int) family {
	return func(seed int64, op, slot int) (instance, error) {
		class := classes[slot]
		return draw(func(redraw int) gen.Params {
			p := table1Params()[class]
			if seed != 0 || op != 0 || redraw != 0 {
				p.Seed = drawSeed(seed, op, class, redraw)
			}
			return p
		}, true, screen)
	}
}

func denseFamily(seed int64, op, slot int) (instance, error) {
	return draw(func(redraw int) gen.Params { return denseParams(drawSeed(seed, op, slot, redraw)) }, false, nil)
}

// tinySeedSlot keeps the service pool's seeds apart from the batch
// families' slots.
const tinySeedSlot = 1 << 16

func tinyFamily(seed int64, op, _ int) (instance, error) {
	return draw(func(redraw int) gen.Params { return tinyParams(drawSeed(seed, op, tinySeedSlot, redraw)) },
		false, &call{"proposed", flow.Proposed})
}

// draw generates instances from params(0), params(1), ... until one
// passes the checks: with channelFit, global assignment must fit its
// nets into the channels; with screen, screenRoute must accept it.
func draw(params func(redraw int) gen.Params, channelFit bool, screen *call) (instance, error) {
	var last error
	for r := 0; r < maxRedraws; r++ {
		inst, err := gen.Generate(params(r))
		if err == nil && channelFit {
			_, err = global.Assign(inst.Layout, inst.GlobalNets(nil))
		}
		var hash string
		if err == nil && screen != nil {
			hash, err = screenRoute(inst, screen.fn)
		}
		if err != nil {
			last = err
			continue
		}
		in := instance{inst: inst, nets: len(inst.Nets), redraws: r}
		if screen != nil {
			in.screenFlow, in.screenHash = screen.serveFlow, hash
		}
		for _, c := range inst.Layout.Cells() {
			in.cellArea += int64(c.W) * int64(c.H)
		}
		for _, n := range inst.Nets {
			in.hpwl += halfPerimeter(n)
		}
		return in, nil
	}
	return instance{}, fmt.Errorf("no usable instance in %d draws: %w", maxRedraws, last)
}

// screenRoute routes inst with fn under netBudget, accepting partial
// results, and returns the route's flow.Hash if no per-net budget
// tripped and no net degraded. Such a route never felt the budget, so
// the default options, which have none, take the same route; a draw
// that trips it would instead spend seconds in the unbounded relaxed
// retry (more than 20 s on some xerox-class draws) or fail as
// unroutable. The screen routes serially, which is cheaper on few
// cores; the router promises the same result at every worker count,
// and the timed default route, with its speculative workers, must
// reproduce the hash.
func screenRoute(inst *gen.Instance, fn flowFn) (string, error) {
	var trips tripCount
	res, err := fn(inst, flow.Options{
		AllowPartial: true,
		Limits:       robust.Limits{NetExpansions: netBudget},
		Tracer:       &trips,
		Workers:      1,
	})
	switch {
	case err != nil:
		return "", err
	case trips > 0 || res.Degraded > 0:
		return "", fmt.Errorf("%s: %d per-net budget trips, %d degraded nets", inst.Name, trips, res.Degraded)
	}
	return flow.Hash(res), nil
}

// tripCount is an obs.Tracer counting per-net budget trips.
type tripCount int

func (t *tripCount) Enabled() bool { return true }

func (t *tripCount) Emit(e obs.Event) {
	if e.Type == obs.EvBudget {
		*t++
	}
}

func halfPerimeter(n gen.NetSpec) int64 {
	if len(n.Pins) == 0 {
		return 0
	}
	p := n.Pins[0].Pos()
	x0, x1, y0, y1 := p.X, p.X, p.Y, p.Y
	for _, pin := range n.Pins[1:] {
		q := pin.Pos()
		x0, x1 = min(x0, q.X), max(x1, q.X)
		y0, y1 = min(y0, q.Y), max(y1, q.Y)
	}
	return int64(x1-x0) + int64(y1-y0)
}
