// Command geolint runs the geoblock static-analysis suite over the
// module: the machine check for the invariants the scan engine's
// determinism and degradation contracts rest on (no wall clock or
// global RNG in the scan path — directly or through wrapper functions
// in other packages, no map-ordered output, contexts threaded end to
// end, checked codec I/O with encode/decode field parity, a static
// class-consistent metric namespace, mutex/atomic discipline on shared
// snapshot state). It is a tier-1 gate: `make check` runs it between
// `go vet` and the tests.
//
//	geolint ./...          # everything (the default)
//	geolint -list          # describe the analyzers
//	geolint -json ./...    # machine-readable diagnostics
//
// Any diagnostic fails the run. The one sanctioned escape is a
// directive that documents why a finding is correct to keep:
// `//geolint:allow <analyzer> <reason>` for one line and
// `//geolint:allow-block <analyzer> <reason>` for a block; see
// internal/lint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"geoblock/internal/lint"
)

// jsonDiag is the machine-readable diagnostic shape for CI annotation.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	pkgs, err := lint.Load(dir, flag.Args()...)
	if err != nil {
		fail(err)
	}
	diags := lint.Check(pkgs, analyzers)

	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer, File: d.Pos.Filename, Line: d.Pos.Line,
				Column: d.Pos.Column, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "geolint: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "geolint:", err)
	os.Exit(2)
}
