package channel

import "testing"

// FuzzGreedy decodes a channel problem from raw bytes and checks that
// the greedy router either refuses it (invalid input) or produces a
// solution the geometric/electrical oracle accepts, and that every
// router matches its reference implementation. Run deep fuzzing with:
//
//	go test -fuzz=FuzzGreedy ./internal/channel
func FuzzGreedy(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1})
	f.Add([]byte{1, 0, 1, 0, 2, 2})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			return
		}
		w := len(data) / 2
		p := &Problem{Top: make([]int, w), Bottom: make([]int, w)}
		for c := 0; c < w; c++ {
			p.Top[c] = int(data[c] % 6)
			p.Bottom[c] = int(data[w+c] % 6)
		}
		if p.Validate() != nil {
			return // invalid instances are out of contract
		}
		s, err := Greedy(p)
		if err != nil {
			// The greedy router promises completion on valid problems;
			// a refusal is itself a finding.
			t.Fatalf("greedy refused a valid problem: %v\ntop=%v\nbot=%v", err, p.Top, p.Bottom)
		}
		if err := s.Validate(p); err != nil {
			t.Fatalf("invalid solution: %v\ntop=%v\nbot=%v", err, p.Top, p.Bottom)
		}
		MatchReference(t, p)
	})
}

// FuzzDoglegAndNetMerge checks the constraint-respecting routers: any
// produced solution must pass the oracle; refusals (cyclic
// constraints) are legitimate. Every router must also match its
// reference implementation.
func FuzzDoglegAndNetMerge(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1})
	f.Add([]byte{1, 1, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			return
		}
		w := len(data) / 2
		p := &Problem{Top: make([]int, w), Bottom: make([]int, w)}
		for c := 0; c < w; c++ {
			p.Top[c] = int(data[c] % 5)
			p.Bottom[c] = int(data[w+c] % 5)
		}
		if p.Validate() != nil {
			return
		}
		if s, err := Dogleg(p); err == nil {
			if verr := s.Validate(p); verr != nil {
				t.Fatalf("dogleg invalid: %v\ntop=%v\nbot=%v", verr, p.Top, p.Bottom)
			}
		}
		if s, err := NetMerge(p); err == nil {
			if verr := s.Validate(p); verr != nil {
				t.Fatalf("net-merge invalid: %v\ntop=%v\nbot=%v", verr, p.Top, p.Bottom)
			}
		}
		MatchReference(t, p)
	})
}
