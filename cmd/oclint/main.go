// Command oclint is the router's vettool: it bundles the
// internal/analysis suite (maporder, checkedverify, pointkey,
// staticdrc, shadowbuiltin, nondeterm, hotalloc) into a
// single binary speaking the `go vet` separate-compilation protocol,
// and doubles as a standalone checker.
//
// The fact-propagating analyzers (nondeterm, hotalloc)
// attach properties to functions and follow them across package
// boundaries. In standalone mode packages are analyzed in dependency
// order over one shared fact store; in vet mode facts travel between
// compilation units through the protocol's .vetx files.
//
// Usage:
//
//	go vet -vettool=$(which oclint) ./...   # alongside a normal build
//	oclint ./...                            # standalone, loads via go list
//	oclint -github ./...                    # findings as GitHub annotations
//	oclint help                             # list analyzers
//
// The protocol required by `go vet -vettool` (see
// cmd/go/internal/work/buildid.go and .../vet/vetflag.go):
//
//	-V=full    print a content-derived version line for build caching
//	-flags     describe supported flags as JSON
//	unit.cfg   analyze the single compilation unit described by the file
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"overcell/internal/analysis"
	"overcell/internal/analysis/framework"
)

// triState distinguishes unset from explicit true/false so that
// -maporder / -maporder=false select or deselect analyzers the same
// way x/tools multicheckers do.
type triState int

const (
	unset triState = iota
	setTrue
	setFalse
)

func (t *triState) IsBoolFlag() bool { return true }
func (t *triState) String() string   { return "" }
func (t *triState) Set(s string) error {
	switch s {
	case "true", "1":
		*t = setTrue
	case "false", "0":
		*t = setFalse
	default:
		return fmt.Errorf("invalid boolean %q", s)
	}
	return nil
}

// versionFlag implements the -V=full half of the vettool protocol: the
// go command caches vet results keyed on the tool's content hash.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel buildID=%02x\n", exe, h.Sum(nil))
	os.Exit(0)
	return nil
}

func main() {
	analyzers := analysis.All()
	if err := framework.Validate(analyzers); err != nil {
		fmt.Fprintln(os.Stderr, "oclint:", err)
		os.Exit(1)
	}

	fs := flag.NewFlagSet("oclint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `oclint: static analysis for the overcell router.

usage:
	go vet -vettool=$(which oclint) ./...
	oclint [packages]
	oclint help
`)
		fs.PrintDefaults()
	}
	fs.Var(versionFlag{}, "V", "print version and exit")
	printflags := fs.Bool("flags", false, "print analyzer flags in JSON")
	jsonOut := fs.Bool("json", false, "emit JSON output")
	github := fs.Bool("github", false, "emit findings as GitHub Actions workflow annotations (standalone mode)")
	fs.Int("c", -1, "display offending line with this many lines of context (ignored)")
	// Legacy vet shims the go command may relay.
	fs.Bool("source", false, "no effect (deprecated)")
	fs.Bool("v", false, "no effect (deprecated)")
	fs.Bool("all", false, "no effect (deprecated)")
	fs.String("tags", "", "no effect (deprecated)")

	enabled := map[string]*triState{}
	for _, a := range analyzers {
		t := new(triState)
		enabled[a.Name] = t
		fs.Var(t, a.Name, "enable only "+a.Name+" (or -"+a.Name+"=false to disable it)")
	}
	fs.Parse(os.Args[1:])

	if *printflags {
		printFlags(fs)
		os.Exit(0)
	}

	analyzers = selectAnalyzers(analyzers, enabled)
	args := fs.Args()

	if len(args) == 1 && args[0] == "help" {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		os.Exit(0)
	}

	// go vet mode: a single JSON config file describing one unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		framework.RunUnit(args[0], analyzers, *jsonOut)
		return // unreachable; RunUnit exits
	}

	// Standalone mode: load packages from source via the go command.
	// LoadPackages returns them in dependency order (with module
	// dependencies of narrow patterns included as facts-only packages),
	// so a single shared fact store gives every analyzer the facts of
	// everything a package imports.
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := framework.LoadPackages(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oclint:", err)
		os.Exit(1)
	}
	facts := framework.NewFactStore()
	exit := 0
	for _, pkg := range pkgs {
		pass := framework.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		diags, err := framework.RunAnalyzers(pass, analyzers, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oclint:", err)
			os.Exit(1)
		}
		if pkg.FactsOnly {
			continue // analyzed for facts; not named by the patterns
		}
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			if *github {
				// GitHub Actions workflow-command annotations: rendered
				// inline on the PR diff by the lint job.
				fmt.Printf("::error file=%s,line=%d,col=%d,title=oclint/%s::%s\n",
					posn.Filename, posn.Line, posn.Column, d.Category,
					strings.ReplaceAll(d.Message, "\n", " "))
			}
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", posn, d.Category, d.Message)
			exit = 2
		}
	}
	os.Exit(exit)
}

// printFlags answers the go command's -flags query: a JSON list of
// flags it may relay to the tool.
func printFlags(fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "oclint:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
}

// selectAnalyzers applies the -NAME flags: any explicit true runs only
// the true set; otherwise explicit falses are removed.
func selectAnalyzers(all []*framework.Analyzer, enabled map[string]*triState) []*framework.Analyzer {
	anyTrue := false
	for _, t := range enabled {
		if *t == setTrue {
			anyTrue = true
		}
	}
	var out []*framework.Analyzer
	for _, a := range all {
		switch *enabled[a.Name] {
		case setTrue:
			out = append(out, a)
		case setFalse:
		default:
			if !anyTrue {
				out = append(out, a)
			}
		}
	}
	return out
}
