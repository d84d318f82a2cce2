package flow

import (
	"testing"

	"overcell/internal/gen"
)

// TestHashDeterminism pins the identity contract: same instance, same
// options → same result hash; a different instance → a different
// hash. This is the equality crash recovery asserts after a replay.
func TestHashDeterminism(t *testing.T) {
	inst1, err := gen.Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Proposed(inst1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := gen.Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Proposed(inst2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := Hash(res1), Hash(res2)
	if h1 != h2 {
		t.Fatalf("repeat run hash mismatch: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}

	// Instance hashes agree across regeneration too.
	ih1, err := inst1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ih2, err := inst2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ih1 != ih2 || len(ih1) != 64 {
		t.Fatalf("instance hash mismatch: %s vs %s", ih1, ih2)
	}

	other, err := gen.XeroxLike()
	if err != nil {
		t.Fatal(err)
	}
	resOther, err := Proposed(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if Hash(resOther) == h1 {
		t.Fatal("different instances hash to the same result digest")
	}
	oh, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if oh == ih1 {
		t.Fatal("different instances hash to the same instance digest")
	}
}

// TestHashAllocs bounds the allocations of hashing the proposed ami33
// result: the field stream goes through one reused buffer, so the
// count does not grow with the result. Writing each field through its
// own buffer made 1,509 allocations here.
func TestHashAllocs(t *testing.T) {
	inst, err := gen.Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Proposed(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 16
	got := testing.AllocsPerRun(10, func() { Hash(res) })
	t.Logf("%.0f allocs per Hash (bound %d)", got, bound)
	if got > bound {
		t.Errorf("Hash makes %.0f allocations, bound %d", got, bound)
	}
}
