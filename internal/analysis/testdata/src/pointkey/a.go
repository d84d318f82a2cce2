// Package pointkey is the analysistest corpus for the pointkey
// analyzer: float-keyed geometry maps and truncating conversions.
package pointkey

// FPt carries float coordinates; equality is too fragile for an
// occupancy key.
type FPt struct{ X, Y float64 }

var occupancy map[FPt]bool // want `struct with floating-point field X used as map key`

// flatten truncates a flattened grid index into 32 bits.
func flatten(col, row, w int) int32 {
	return int32(row*w + col) // want `conversion int32\(.*\) may truncate`
}

// snap silently discards the fraction of a layout coordinate.
func snap(x float64) int {
	return int(x) // want `conversion int\(x\) may truncate`
}

// pack masks with a constant wider than the destination: no bound.
func pack(i int) int32 {
	return int32(i & (1<<32 - 1)) // want `conversion int32\(.*\) may truncate`
}

// packSigned masks with a negative constant, which keeps the sign bits.
func packSigned(i int) int32 {
	return int32(i & -2) // want `conversion int32\(.*\) may truncate`
}
