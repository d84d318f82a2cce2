package geom

import "testing"

// FuzzBits drives a bitset with an op-code string and cross-checks
// every query against a dense boolean model. The first two bytes pick
// the width, 1 to 300 bits; each following four-byte op sets, clears
// or adds one bit at a two-byte start with a one-byte length, so runs
// cross several words. Run deep fuzzing with:
//
//	go test -fuzz=FuzzBits ./internal/geom
func FuzzBits(f *testing.F) {
	f.Add([]byte{0x01, 0x2b, 0x00, 0x00, 0x3f, 0xc8, 0x81, 0x00, 0x40, 0x10})
	f.Add([]byte{0x00, 0xff, 0x00, 0x00, 0x01, 0xc7, 0x01, 0x00, 0x02, 0xc5,
		0x02, 0x00, 0x64, 0x00, 0x02, 0x00, 0xff, 0x00, 0x00, 0x00, 0x3f, 0x02,
		0x01, 0x00, 0x40, 0x00, 0x10, 0xee})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := 64
		if len(ops) >= 2 {
			n = 1 + (int(ops[0])<<8|int(ops[1]))%300
			ops = ops[2:]
		}
		b := Bits(nil).Reset(n)
		m := make(bitsModel, n)
		for ; len(ops) >= 4; ops = ops[4:] {
			lo := (int(ops[1])<<8 | int(ops[2])) % n
			hi := Min(n-1, lo+int(ops[3]))
			switch ops[0] % 3 {
			case 0:
				b.SetRange(lo, hi)
				m.apply(true, lo, hi)
			case 1:
				b.ClearRange(lo, hi)
				m.apply(false, lo, hi)
			default:
				b.Set(lo)
				m.apply(true, lo, lo)
			}
		}
		// The leftover bytes pick the window; it may run off the set.
		window := Iv(n/4, 3*n/4)
		if len(ops) >= 2 {
			lo := int(ops[0])%(n+4) - 2
			window = Iv(lo, lo+int(ops[1])%(n+2))
		}
		checkBits(t, b, m, window)
	})
}
