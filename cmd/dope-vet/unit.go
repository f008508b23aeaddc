package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"regexp"

	"dope/internal/analysis/framework"
	"dope/internal/analysis/load"
)

// vetConfig is the JSON configuration the go command writes for each
// package unit when driving a vet tool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one package unit described by cfgFile and exits: status 1
// if there are findings, 0 otherwise.
func runUnit(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgFile, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0)
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	// Resolve imports through the export data the go command already
	// compiled for this unit's dependencies.
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			if cfg.Compiler == "gccgo" && cfg.Standard[path] {
				return nil, nil // gccgo's own lookup
			}
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})

	info := load.NewInfo()
	tc := &types.Config{
		Importer:  compilerImporter,
		GoVersion: languageVersion(cfg.GoVersion),
		Sizes:     types.SizesFor(cfg.Compiler, "amd64"),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	// Seed the fact store with the vetx files the go command collected from
	// this unit's dependencies, so call-site analyzers see the Begin/End
	// summaries of imported helpers.
	facts := framework.NewFactStore()
	for path, vetx := range cfg.PackageVetx {
		dep, err := framework.ReadVetxFile(vetx)
		if err != nil {
			log.Fatalf("reading facts of %s: %v", path, err)
		}
		facts.Merge(dep)
	}

	// A VetxOnly unit exists purely to produce facts for its dependents:
	// run the analyzers with reporting disabled and write the store.
	if cfg.VetxOnly {
		if err := framework.ExportFacts(fset, files, pkg, info, analyzers(), facts); err != nil {
			log.Fatalf("%s: %v", cfg.ImportPath, err)
		}
		writeVetx(cfg.VetxOutput, facts)
		os.Exit(0)
	}

	findings, err := framework.RunPackageFacts(fset, files, pkg, info, analyzers(), facts)
	if err != nil {
		log.Fatalf("%s: %v", cfg.ImportPath, err)
	}
	// The store now also holds this unit's own facts (the analyzers export
	// while they run); hand the merged set to dependents. Facts accumulate
	// transitively this way, so a dependent sees indirect helpers too.
	writeVetx(cfg.VetxOutput, facts)
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n",
			f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// writeVetx persists the fact store where the go command asked for it. The
// output file is mandatory when requested, even if no facts were produced.
func writeVetx(path string, facts *framework.FactStore) {
	if path == "" {
		return
	}
	if err := facts.WriteVetxFile(path); err != nil {
		log.Fatal(err)
	}
}

var versionRE = regexp.MustCompile(`^go\d+\.\d+`)

// languageVersion trims a toolchain version like "go1.24.0" to the language
// version form ("go1.24") accepted by go/types.
func languageVersion(v string) string {
	if m := versionRE.FindString(v); m != "" {
		return m
	}
	return ""
}
