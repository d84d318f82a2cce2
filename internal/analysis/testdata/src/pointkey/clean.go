package pointkey

// Pt is an exact integer grid point: a sound map key.
type Pt struct{ Col, Row int }

var vias map[Pt]bool

// widen never truncates.
func widen(i int32) int { return int(i) }

// index stays in full-width integer arithmetic.
func index(p Pt, w int) int { return p.Row*w + p.Col }

// constant conversions are range-checked by the compiler already.
func smallConst() int8 { return int8(127) }

// trackMask bounds a track index to 24 bits.
const trackMask = 1<<24 - 1

// narrow carries its bound in the mask: the result lies in [0, 1<<24).
func narrow(i int) int32 { return int32(i & trackMask) }

// low keeps the low byte, as a mask on either side.
func low(i int) uint8 { return uint8(0xff & i) }
