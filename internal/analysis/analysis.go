package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that fired, and a
// message. Rendered as "file:line: [check] message".
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Path   string // import path
	Module string // module path ("" for fixtures)
	Fset   *token.FileSet
	Files  []*ast.File
	Src    map[string][]byte // file name (as in Fset) → source, for directive parsing
	Types  *types.Package
	Info   *types.Info
}

// Config scopes the checks to the tree under analysis.
type Config struct {
	// PurePackages are the import paths where the determinism check
	// applies: packages whose results must be a pure function of seeds.
	PurePackages []string
	// WirePackages are the import paths where the wiredeadline check
	// applies.
	WirePackages []string
	// RNGPackage is the sanctioned RNG package: exempt from seedpurity
	// (and from determinism's NewSource rule), and the home of the
	// Source type whose values are legal rand.New arguments elsewhere.
	RNGPackage string
	// FrameWriters lists fully qualified type names
	// ("path/to/pkg.Type") whose WriteFrame calls count as wire writes for
	// the wiredeadline check.
	FrameWriters []string
}

// DefaultConfig returns the configuration for this repository's tree,
// given its module path.
func DefaultConfig(module string) Config {
	pure := []string{"core", "sim", "game", "dist", "stats", "rngutil", "netmodel"}
	cfg := Config{
		RNGPackage:   module + "/internal/rngutil",
		WirePackages: []string{module + "/internal/frame", module + "/internal/cluster", module + "/internal/serve", module + "/internal/fleet"},
		FrameWriters: []string{module + "/internal/frame.Writer"},
	}
	for _, p := range pure {
		cfg.PurePackages = append(cfg.PurePackages, module+"/internal/"+p)
	}
	return cfg
}

// Check is one registered analyzer.
type Check struct {
	Name string
	Doc  string
	Run  func(*Package, *Config) []Diagnostic
}

// Checks returns the full registry in stable order.
func Checks() []Check {
	return []Check{
		{
			Name: CheckDeterminism,
			Doc:  "pure-path packages must not read clocks, ambient RNG state, or map order",
			Run:  runDeterminism,
		},
		{
			Name: CheckAllocFree,
			Doc:  "functions marked //repolint:allocfree must avoid allocation constructs",
			Run:  runAllocFree,
		},
		{
			Name: CheckWireDeadline,
			Doc:  "wire packages must arm a write deadline in every function that writes",
			Run:  runWireDeadline,
		},
		{
			Name: CheckSeedPurity,
			Doc:  "RNG state must be constructed from rngutil seeds and sources",
			Run:  runSeedPurity,
		},
	}
}

// Registered check names. CheckWaiver is the pseudo-check that reports
// malformed directives; it cannot be waived.
const (
	CheckDeterminism  = "determinism"
	CheckAllocFree    = "allocfree"
	CheckWireDeadline = "wiredeadline"
	CheckSeedPurity   = "seedpurity"
	CheckWaiver       = "waiver"
)

// knownCheck reports whether name may appear in a waiver.
func knownCheck(name string) bool {
	for _, c := range Checks() {
		if c.Name == name {
			return true
		}
	}
	return false
}

// SelectChecks resolves a comma-separated check list ("" means all).
func SelectChecks(list string) ([]Check, error) {
	all := Checks()
	if list == "" {
		return all, nil
	}
	var out []Check
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, c := range all {
			if c.Name == name {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, checkNames(all))
		}
	}
	return out, nil
}

func checkNames(cs []Check) string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// Analyze runs the given checks over the packages, applies waivers, and
// returns the surviving diagnostics in deterministic order. Malformed
// directives are reported under the "waiver" pseudo-check and cannot be
// waived away.
func Analyze(pkgs []*Package, cfg *Config, checks []Check) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		dirs := parseDirectives(p)
		out = append(out, dirs.diags...)
		for _, c := range checks {
			for _, d := range c.Run(p, cfg) {
				if !dirs.waived(d.Check, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}

func containsPath(paths []string, path string) bool {
	for _, p := range paths {
		if p == path {
			return true
		}
	}
	return false
}

// pkgFuncOf resolves a selector expression to (imported package path,
// selected name) when its operand names an imported package.
func pkgFuncOf(p *Package, e ast.Expr) (string, string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// namedTypeString returns the fully qualified "pkgpath.Name" of t after
// stripping pointers, or "" if t is not a named type.
func namedTypeString(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
