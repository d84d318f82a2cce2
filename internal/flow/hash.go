package flow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"overcell/internal/core"
)

// Hash digests a flow result into a stable hex identity. Two results
// hash equal exactly when the headline metrics and the complete
// level B geometry (per-net terminals, segments and vias, in routing
// order) are identical — the byte-determinism invariant that crash
// recovery and the chaos harness assert: re-executing a journaled run
// after a kill -9 must reproduce the uninterrupted run's hash.
//
// The digest covers integers only (floating-point delay summaries are
// derived values and excluded), so it is insensitive to formatting
// and architecture.
func Hash(res *Result) string {
	d := hasher{h: sha256.New(), buf: make([]byte, 0, 2*hashChunk)}
	d.str(res.Flow)
	d.ints(int(res.Area), res.Width, res.Height, res.WireLength, res.Vias,
		res.Feedthroughs, res.Degraded, len(res.ChannelTracks))
	d.ints(res.ChannelTracks...)
	if lb := res.LevelB; lb != nil {
		d.ints(len(lb.Routes), lb.WireLength, lb.Vias, lb.Corners, lb.Failed, lb.Expanded)
		for _, nr := range lb.Routes {
			d.netRoute(nr)
		}
	}
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
}

func (d *hasher) netRoute(nr *core.NetRoute) {
	if nr.Net != nil {
		d.str(nr.Net.Name)
	}
	d.ints(nr.WireLength, nr.Corners, len(nr.Terminals), len(nr.Segments), len(nr.Vias))
	for _, p := range nr.Terminals {
		d.ints(p.Col, p.Row)
	}
	for _, s := range nr.Segments {
		dir := 0
		if s.Horizontal {
			dir = 1
		}
		d.ints(dir, s.Track, s.Lo, s.Hi)
	}
	for _, p := range nr.Vias {
		d.ints(p.Col, p.Row)
	}
	// Failure presence participates (a degraded net is not the same
	// result as a routed one) but not the error text, which may carry
	// budget counters that differ across equivalent runs.
	failed := 0
	if nr.Err != nil {
		failed = 1
	}
	d.ints(failed)
}

// hashChunk is how many buffered bytes hasher collects before it
// writes them to the hash.
const hashChunk = 4096

// hasher feeds Hash's byte stream to the hash through one reused
// buffer: each int as 8 little-endian bytes, each string as its
// length, then its bytes. Writing each field through its own slice
// would move that slice to the heap, since the hash is an interface.
type hasher struct {
	h   hash.Hash
	buf []byte
}

func (d *hasher) str(s string) {
	d.ints(len(s))
	d.buf = append(d.buf, s...)
}

func (d *hasher) ints(vs ...int) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(v)))
	}
	if len(d.buf) >= hashChunk {
		d.flush()
	}
}

func (d *hasher) flush() {
	_, _ = d.h.Write(d.buf) // hash.Hash.Write never errors
	d.buf = d.buf[:0]
}
