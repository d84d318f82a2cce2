package geom

import "testing"

func TestIntervalBasics(t *testing.T) {
	iv := Iv(3, 7)
	if iv.Empty() {
		t.Error("non-empty interval reported empty")
	}
	if iv.Len() != 5 {
		t.Errorf("Len = %d, want 5", iv.Len())
	}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Error("Contains boundary behaviour wrong")
	}
	if !Iv(5, 4).Empty() || Iv(5, 4).Len() != 0 {
		t.Error("empty interval behaviour wrong")
	}
	if !Iv(1, 3).Overlaps(Iv(3, 5)) {
		t.Error("touching closed intervals must overlap")
	}
	if Iv(1, 3).Overlaps(Iv(4, 5)) {
		t.Error("disjoint intervals reported overlapping")
	}
	if got := Iv(1, 5).Intersect(Iv(3, 9)); got != Iv(3, 5) {
		t.Errorf("Intersect = %v", got)
	}
}
