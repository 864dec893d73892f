package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"selflearn/internal/ml/forest"
)

// TestMain runs the test binary as modelinfo when MODELINFO_MAIN is
// set, so the tests below drive the real command: its flags, exit
// status and output.
func TestMain(m *testing.M) {
	if os.Getenv("MODELINFO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// modelinfo runs the command and returns its exit code, stdout and
// stderr.
func modelinfo(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "MODELINFO_MAIN=1")
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

// TestTrainGolden pins the whole report for an in-process detector:
// ensemble shape, OOB error, C table footprint and the ranked
// importances, which only a freshly trained forest carries.
func TestTrainGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "train-chb01.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := modelinfo(t, "-train", "chb01")
	if code != 0 {
		t.Fatalf("-train chb01: exit %d, stderr:\n%s", code, errOut)
	}
	if out != string(want) {
		t.Errorf("-train chb01 output differs from testdata/train-chb01.golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestNoSource(t *testing.T) {
	code, out, errOut := modelinfo(t)
	if code != 2 || !strings.Contains(errOut, "need -model or -train") {
		t.Errorf("no flags: exit %d, stderr %q, want 2 and a usage hint", code, errOut)
	}
	if out != "" {
		t.Errorf("no flags: stdout %q, want nothing", out)
	}
}

// TestModelCheckpoint inspects a checkpoint the test writes: it prints
// the ensemble shape and says that a loaded model carries no
// importances.
func TestModelCheckpoint(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {0, 0.1}, {1, 0.9}, {0.2, 0}, {0.9, 1}}
	y := []bool{false, true, false, true, false, true}
	f, err := forest.Train(X, y, forest.Config{NumTrees: 3, MinLeaf: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := modelinfo(t, "-model", path)
	if code != 0 {
		t.Fatalf("-model: exit %d, stderr:\n%s", code, errOut)
	}
	for _, line := range []string{
		"trees: 3\n",
		"input features: 2\n",
		"feature importances: not available (deserialized model)\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("-model output lacks %q:\n%s", line, out)
		}
	}
}
