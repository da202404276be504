package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"smartexp3/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGenerateGoldenCSV pins the generated paper pairs byte for byte, in
// their on-disk CSV form: one golden file per style. Regenerate with
// `go test ./internal/trace -run Golden -update` and review the diff — a
// changed file means the trace generator's random stream or the CSV layout
// moved, which silently re-dates every Table VI number.
func TestGenerateGoldenCSV(t *testing.T) {
	for _, tc := range []struct {
		style Style
		seed  int64
	}{
		{StyleAlternating, 1},
		{StyleCellularDominant, 1},
		{StyleCrossover, 3},
		{StyleBothVolatile, 2},
	} {
		t.Run(tc.style.String(), func(t *testing.T) {
			p := Generate(tc.style, 40, tc.seed)
			var buf bytes.Buffer
			if err := WriteCSV(&buf, p); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata",
				fmt.Sprintf("golden_%s_seed%d.csv", sanitize(tc.style.String()), tc.seed))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("generated CSV for %v seed %d differs from %s — generator stream or CSV layout changed",
					tc.style, tc.seed, path)
			}
			// The golden file must survive its own reader: a layout change
			// that breaks ReadCSV would otherwise hide behind -update.
			got, err := ReadCSV(bytes.NewReader(want), p.Name, 15)
			if err != nil {
				t.Fatal(err)
			}
			if got.Slots() != p.Slots() {
				t.Fatalf("golden file reads back %d slots, want %d", got.Slots(), p.Slots())
			}
		})
	}
}

// TestRunGolden pins the trace-driven run end to end: every policy on each
// of the four pair styles, with the totals in exact bits and the per-slot
// selection and rate series as SHA-256 digests. Any drift in the policy
// integration, the switching-delay draws or the charging of a switch shows
// up here before it silently re-dates Table VI or Figure 12. Regenerate
// with `go test ./internal/trace -run Golden -update` and review the diff.
func TestRunGolden(t *testing.T) {
	algs := []core.Algorithm{
		core.AlgEXP3, core.AlgBlockEXP3, core.AlgHybridBlockEXP3,
		core.AlgSmartEXP3NoReset, core.AlgSmartEXP3,
		core.AlgGreedy, core.AlgFixedRandom,
	}
	styles := []Style{StyleAlternating, StyleCellularDominant, StyleCrossover, StyleBothVolatile}
	exact := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "algorithm,style,seed,download_mb,switch_cost_mb,switches,selections_sha256,rate_sha256")
	for _, style := range styles {
		pair := Generate(style, 200, 1)
		for i, alg := range algs {
			seed := int64(i + 1)
			res, err := Run(RunConfig{Pair: pair, Algorithm: alg, Seed: seed})
			if err != nil {
				t.Fatalf("%v on %v: %v", alg, style, err)
			}
			sel := sha256.New()
			for _, s := range res.Selections {
				sel.Write(binary.LittleEndian.AppendUint64(nil, uint64(s)))
			}
			rate := sha256.New()
			for _, r := range res.RateMbps {
				rate.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r)))
			}
			fmt.Fprintf(&buf, "%v,%v,%d,%s,%s,%d,%x,%x\n",
				alg, style, seed, exact(res.DownloadMB), exact(res.SwitchCostMB),
				res.Switches, sel.Sum(nil), rate.Sum(nil))
		}
	}
	path := filepath.Join("testdata", "golden_runs.csv")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("trace run results drifted from %s:\nwant:\n%sgot:\n%s", path, want, buf.Bytes())
	}
}

// sanitize maps a style's display name to a file-name-safe slug.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ' ' || r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}
