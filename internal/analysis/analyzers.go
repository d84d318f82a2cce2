// Package analysis is the router's custom lint suite: seven analyzers
// that statically enforce the properties the level B router's results
// depend on — deterministic routing decisions, checked design-rule
// verification, sound geometry keys and arithmetic, statically valid
// router configurations, no shadowing of predeclared builtins, no
// nondeterminism sources reachable from routing code, and allocation
// discipline on //oc:hotpath functions. cmd/oclint wires
// them into a vettool runnable as
// `go vet -vettool=$(which oclint) ./...`.
//
// The last two analyzers propagate framework facts across function
// and package boundaries (see facts.go and DESIGN.md section 14), so
// a property like "calling this helper reads the wall clock" or
// "calling this helper allocates" follows the call graph instead of
// stopping at the package edge.
//
// The suite encodes the "catch it before you route" discipline of the
// early-routability literature at the source level: the TIG/MBFS
// pipeline freezes level A and then commits geometry, so any
// nondeterminism or unchecked rule violation upstream silently
// invalidates every reported table.
package analysis

import (
	"strings"

	"overcell/internal/analysis/framework"
)

// modulePath is the import-path root of the repository this suite
// lints. The analyzers are router-specific by design; scoping them to
// the module keeps them silent on foreign code a driver might feed
// them.
const modulePath = "overcell"

// All returns the full analyzer suite in a stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		MapOrder,
		CheckedVerify,
		PointKey,
		StaticDRC,
		ShadowBuiltin,
		NonDeterm,
		HotAlloc,
	}
}

// inScope reports whether the analyzer named name, whose production
// scope is the given internal package names, should run on the package.
//
// Corpus packages under .../testdata/src/<name>/ are bound to their own
// analyzer only, so one analyzer's corpus can freely contain patterns
// another analyzer would flag.
func inScope(pkgPath, name string, scopePkgs []string) bool {
	path := framework.NormalizePkgPath(pkgPath)
	if i := strings.Index(path, "/testdata/src/"); i >= 0 {
		seg := path[i+len("/testdata/src/"):]
		if j := strings.IndexByte(seg, '/'); j >= 0 {
			seg = seg[:j]
		}
		return seg == name
	}
	for _, s := range scopePkgs {
		if path == modulePath+"/internal/"+s {
			return true
		}
	}
	return false
}

// inModule reports whether the package belongs to this repository (any
// package under the module path), or is a corpus package for name.
func inModule(pkgPath, name string) bool {
	path := framework.NormalizePkgPath(pkgPath)
	if i := strings.Index(path, "/testdata/src/"); i >= 0 {
		seg := path[i+len("/testdata/src/"):]
		if j := strings.IndexByte(seg, '/'); j >= 0 {
			seg = seg[:j]
		}
		return seg == name
	}
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// corpus splits a corpus package path into the analyzer it is bound to
// and whether it is the corpus root. Subpackages below the root (for
// example testdata/src/nondeterm/helper) model "some other package of
// the module": fact computation sees them, diagnostic scope does not —
// which is exactly how cross-package fact propagation is exercised.
func corpus(pkgPath string) (name string, root bool, ok bool) {
	path := framework.NormalizePkgPath(pkgPath)
	i := strings.Index(path, "/testdata/src/")
	if i < 0 {
		return "", false, false
	}
	seg := path[i+len("/testdata/src/"):]
	if j := strings.IndexByte(seg, '/'); j >= 0 {
		return seg[:j], false, true
	}
	return seg, true, true
}

// factScope reports whether the analyzer named name should compute
// facts for the package: every package of the module, plus the
// analyzer's own corpus (root and subpackages).
func factScope(pkgPath, name string) bool {
	if cname, _, ok := corpus(pkgPath); ok {
		return cname == name
	}
	path := framework.NormalizePkgPath(pkgPath)
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// reportScope reports whether the analyzer named name should emit
// diagnostics for the package: the listed internal packages, the
// module root, optionally the cmd tree — and the analyzer's corpus
// root.
func reportScope(pkgPath, name string, internalPkgs []string, includeCmds bool) bool {
	if cname, isRoot, ok := corpus(pkgPath); ok {
		return cname == name && isRoot
	}
	path := framework.NormalizePkgPath(pkgPath)
	if path == modulePath {
		return true
	}
	if includeCmds && strings.HasPrefix(path, modulePath+"/cmd/") {
		return true
	}
	for _, s := range internalPkgs {
		if path == modulePath+"/internal/"+s {
			return true
		}
	}
	return false
}
