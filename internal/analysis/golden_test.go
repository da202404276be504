package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smartexp3/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// sharedImporter builds one go-list dependency closure for the whole test
// binary: listing is by far the slowest step, and every fixture package
// type-checks against the same closure.
var sharedImporter = sync.OnceValues(func() (*analysis.Importer, error) {
	return analysis.NewImporter("../..", "./...")
})

// fixtureConfig scopes the checks the way DefaultConfig scopes them for
// the real tree: determinism applies to the determinism fixtures,
// wiredeadline to the wiredeadline fixtures, and rngutil stays the
// sanctioned RNG package so the clean fixtures can use it.
func fixtureConfig() analysis.Config {
	return analysis.Config{
		PurePackages: []string{"fixture/determinism_bad", "fixture/determinism_clean"},
		WirePackages: []string{"fixture/wiredeadline_bad", "fixture/wiredeadline_clean"},
		RNGPackage:   "smartexp3/internal/rngutil",
		FrameWriters: []string{"smartexp3/internal/frame.Writer"},
	}
}

// TestGolden runs the full check suite over every fixture package under
// testdata/src and compares the rendered diagnostics with the golden
// file of the same name. Each check has a _bad fixture (firing) and a
// _clean fixture (empty golden); waiver_bad covers the directive parser's
// own diagnostics. Run with -update to rewrite the goldens.
func TestGolden(t *testing.T) {
	im, err := sharedImporter()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	checks := analysis.Checks()
	for _, ent := range entries {
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			files, err := filepath.Glob(filepath.Join("testdata", "src", name, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("fixture %s has no Go files (%v)", name, err)
			}
			pkg, err := im.Check("fixture/"+name, files...)
			if err != nil {
				t.Fatalf("type-checking fixture: %v", err)
			}
			var b strings.Builder
			for _, d := range analysis.Analyze([]*analysis.Package{pkg}, &cfg, checks) {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()
			goldenPath := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestGoldenCoversEveryCheck guards the corpus itself: every registered
// check must appear in at least one golden file (a firing case) and
// every check must also have a fixture whose golden is empty (a clean
// case), so a future check cannot land without both.
func TestGoldenCoversEveryCheck(t *testing.T) {
	fired := make(map[string]bool)
	clean := make(map[string]bool)
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		base := strings.TrimSuffix(ent.Name(), ".txt")
		if len(data) == 0 {
			for _, c := range analysis.Checks() {
				if strings.HasPrefix(base, c.Name+"_") {
					clean[c.Name] = true
				}
			}
			continue
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			open := strings.Index(line, "[")
			close := strings.Index(line, "]")
			if open >= 0 && close > open {
				fired[line[open+1:close]] = true
			}
		}
	}
	for _, c := range analysis.Checks() {
		if !fired[c.Name] {
			t.Errorf("check %s has no firing golden case", c.Name)
		}
		if !clean[c.Name] {
			t.Errorf("check %s has no clean (empty-golden) fixture", c.Name)
		}
	}
	if !fired[analysis.CheckWaiver] {
		t.Error("the waiver pseudo-check has no firing golden case")
	}
}

// TestSelectChecks pins the -checks flag surface: valid subsets resolve
// in registry order, unknown names error.
func TestSelectChecks(t *testing.T) {
	cs, err := analysis.SelectChecks("seedpurity, determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != analysis.CheckSeedPurity || cs[1].Name != analysis.CheckDeterminism {
		t.Fatalf("SelectChecks returned %v", cs)
	}
	if _, err := analysis.SelectChecks("determinism,nosuchcheck"); err == nil {
		t.Fatal("unknown check name did not error")
	}
}
