package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"selflearn/internal/ml/forest"
)

// TestMain runs the test binary as deploy when DEPLOY_MAIN is set, so
// the tests below drive the real command: its flags, exit status,
// output and files.
func TestMain(m *testing.M) {
	if os.Getenv("DEPLOY_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// deploy runs the command and returns its exit code, stdout and stderr.
func deploy(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DEPLOY_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	switch err := cmd.Run(); {
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	case err != nil:
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// cDigest is the SHA-256 of the C tables deploy writes at its default
// flags. The JSON checkpoint has no pinned digest: its float64
// thresholds are feature values of records rendered with math.Exp,
// whose last bits differ on a host without FMA, while the float32
// tables the C holds do not.
const cDigest = "a0ac91826bf02d27392b1ec501242b8f4b1bd3104479c89d7e4e2da8e3f60fa7"

// TestDefaultGolden runs deploy at its default flags. Its report
// matches testdata/default.golden with the output directory written as
// OUT, the C tables match cDigest, and both files are what the
// checkpoint reads back as: the flat loader and writer reproduce the
// JSON byte for byte, and the tables made from it reproduce the C.
func TestDefaultGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	code, out, errOut := deploy(t, "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if got := strings.ReplaceAll(out, dir, "OUT"); got != string(want) {
		t.Errorf("output differs from testdata/default.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	checkpoint, err := os.ReadFile(filepath.Join(dir, "chb01_detector.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(filepath.Join(dir, "chb01_detector.c"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(c); hex.EncodeToString(sum[:]) != cDigest {
		t.Errorf("C tables hash to %x, want %s", sum, cDigest)
	}

	ff, err := forest.LoadFlat(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ff.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, checkpoint) {
		t.Error("the checkpoint does not write back to its own bytes")
	}
	_, src, err := cTables(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, c) {
		t.Error("the checkpoint's C tables differ from the C file")
	}
}

func TestNoEvents(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := deploy(t, "-events", "0", "-out", dir)
	if code != 1 || !strings.Contains(errOut, "-events 0 invalid") {
		t.Errorf("-events 0: exit %d, stderr %q, want 1 and the bad flag named", code, errOut)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("-events 0 wrote %d files", len(entries))
	}
}
