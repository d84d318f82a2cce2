package framework

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// A Fact is a typed property an analyzer attaches to a package-level
// object (a function, method, or variable) so it can be consulted when
// a *different* package that references the object is analyzed later.
// Facts are the mechanism that lets a property propagate across
// package boundaries: packages are analyzed in dependency order, so by
// the time a caller is checked, the facts of everything it imports are
// already in the store.
//
// Fact types must be JSON-serializable (exported fields): the store
// keeps each fact encoded, so every import decodes a private copy.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact() bool
}

// factKey identifies one fact: which analyzer produced it, which
// object it describes, and the fact's concrete type (one analyzer may
// attach several fact types to the same object).
type factKey struct {
	Analyzer string
	Pkg      string
	Obj      string
	Type     string
}

// factStore accumulates the facts of an analysis run. One store is
// shared across every package of a run; dependency order guarantees
// producers run before consumers.
type factStore struct {
	facts map[factKey]json.RawMessage
}

func newFactStore() *factStore {
	return &factStore{facts: map[factKey]json.RawMessage{}}
}

// ObjectKey derives the stable cross-package name of a package-level
// object: "Func" for functions, "Type.Method" for methods, "Var" for
// package-level variables. Objects without a stable name (locals,
// fields, interface methods without a concrete receiver) return
// ok=false; facts cannot be attached to them.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
		return fn.Name(), true
	}
	// Package-scope variables and constants only.
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

func (s *factStore) key(analyzer string, obj types.Object, fact Fact) (factKey, bool) {
	name, ok := ObjectKey(obj)
	if !ok {
		return factKey{}, false
	}
	return factKey{
		Analyzer: analyzer,
		Pkg:      NormalizePkgPath(obj.Pkg().Path()),
		Obj:      name,
		Type:     fmt.Sprintf("%T", fact),
	}, true
}

// export records fact for obj. Unkeyable objects are silently skipped
// (the analyzer simply loses propagation through them, it does not
// crash).
func (s *factStore) export(analyzer string, obj types.Object, fact Fact) error {
	k, ok := s.key(analyzer, obj, fact)
	if !ok {
		return nil
	}
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("framework: encoding fact %T for %s.%s: %w", fact, k.Pkg, k.Obj, err)
	}
	s.facts[k] = data
	return nil
}

// importFact loads the fact recorded for obj into the value fact
// points to, reporting whether one was found.
func (s *factStore) importFact(analyzer string, obj types.Object, fact Fact) bool {
	k, ok := s.key(analyzer, obj, fact)
	if !ok {
		return false
	}
	data, ok := s.facts[k]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}
