package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"smartexp3/internal/experiment"
)

// testbedIDs are the registry ids the artifact manifest leaves out: they run
// wall-clock slots over real loopback sockets, so their artifacts differ
// from run to run even at one seed.
var testbedIDs = []string{"fig13", "fig14", "fig15", "tab7"}

// manifestPath holds the SHA-256 of every artifact that `reproduce -quick
// -seed 424242` writes for the simulated experiments, one
// "<hex>  <file>" line per artifact, sorted by file name.
var manifestPath = filepath.Join("testdata", "artifacts_amd64.sha256")

// TestQuickArtifactsMatchManifest pins the reproduction bit for bit: every
// simulated experiment runs at -quick and a fixed seed, and each artifact's
// digest must equal the checked-in manifest's. A change that moves no
// decision bit leaves the manifest alone; one that does names the files it
// moved. Regenerate with
// `UPDATE_ARTIFACT_MANIFEST=1 go test ./cmd/reproduce -run Manifest` and
// review the diff. Digests are recorded on amd64 only, because other
// architectures may fuse multiply-adds and round differently.
func TestQuickArtifactsMatchManifest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the artifact manifest is recorded on amd64, not %s", runtime.GOARCH)
	}
	skip := make(map[string]bool)
	for _, id := range testbedIDs {
		if _, ok := experiment.ByID(id); !ok {
			t.Fatalf("skipped id %q is not in the registry", id)
		}
		skip[id] = true
	}
	var ids []string
	for _, d := range experiment.All() {
		if !skip[d.ID] {
			ids = append(ids, d.ID)
		}
	}
	dir := t.TempDir()
	if err := run([]string{"-quick", "-seed", "424242", "-run", strings.Join(ids, ","), "-out", dir}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_ARTIFACT_MANIFEST") == "1" {
		if err := os.WriteFile(manifestPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_ARTIFACT_MANIFEST=1 to create)", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("artifacts drifted from %s:\n%s", manifestPath, manifestDiff(want, got.Bytes()))
	}
}

// manifestDiff lists the manifest lines present on one side only.
func manifestDiff(want, got []byte) string {
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(string(got)), "\n")
	inWant := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(gotLines))
	var b strings.Builder
	for _, l := range gotLines {
		inGot[l] = true
		if !inWant[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	for _, l := range wantLines {
		if !inGot[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	return b.String()
}
