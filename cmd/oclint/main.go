// Command oclint is the router's linter: it runs the internal/analysis
// suite (maporder, checkedverify, pointkey, staticdrc, shadowbuiltin,
// nondeterm, hotalloc) over packages loaded with their test files.
//
// The fact-propagating analyzers (nondeterm, hotalloc) attach
// properties to functions and follow them across package boundaries:
// packages are analyzed in dependency order over one shared fact
// store (see internal/analysis/framework).
//
// Usage:
//
//	oclint ./...           # exit 0 clean, 2 on findings, 1 on errors
//	oclint -github ./...   # findings also as GitHub annotations
//	oclint -maporder ./... # run only maporder (-maporder=false skips it)
//	oclint help            # list analyzers
package main

import (
	"flag"
	"fmt"
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
	oclint [flags] [packages]
	oclint help
`)
		fs.PrintDefaults()
	}
	github := fs.Bool("github", false, "also emit findings as GitHub Actions workflow annotations")
	enabled := map[string]*triState{}
	for _, a := range analyzers {
		t := new(triState)
		enabled[a.Name] = t
		fs.Var(t, a.Name, "enable only "+a.Name+" (or -"+a.Name+"=false to disable it)")
	}
	fs.Parse(os.Args[1:])

	analyzers = selectAnalyzers(analyzers, enabled)
	args := fs.Args()

	if len(args) == 1 && args[0] == "help" {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		os.Exit(0)
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := framework.Run(".", analyzers, args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oclint:", err)
		os.Exit(1)
	}
	exit := 0
	for _, pkg := range pkgs {
		for _, d := range pkg.Diagnostics {
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
