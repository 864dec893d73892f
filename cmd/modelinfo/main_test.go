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
	"selflearn/internal/serve"
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

// checkpoint writes a small trained detector's checkpoint, as
// pipeline.Session.SaveDetector writes it, and returns its path and the
// forest.
func checkpoint(t *testing.T) (string, *forest.FlatForest) {
	t.Helper()
	X := [][]float64{{0, 0}, {1, 1}, {0, 0.1}, {1, 0.9}, {0.2, 0}, {0.9, 1}}
	y := []bool{false, true, false, true, false, true}
	f, err := forest.Train(X, y, forest.Config{NumTrees: 3, MinLeaf: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ff := f.Flatten()
	data, err := ff.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ff
}

// TestModelCheckpoint inspects a checkpoint the test writes: it prints
// the ensemble shape and says that a loaded model carries no
// importances.
func TestModelCheckpoint(t *testing.T) {
	path, _ := checkpoint(t)
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

// TestModelVersioned: a checkpoint as the model store writes it, led by
// its model_version, reads as the same checkpoint without one.
func TestModelVersioned(t *testing.T) {
	path, ff := checkpoint(t)
	store, err := serve.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveVersion("p", ff, 7); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(store.PathFor("p")); err != nil || !bytes.HasPrefix(data, []byte(`{"model_version":7,`)) {
		t.Fatalf("the store's checkpoint does not open with its version (%v)", err)
	}
	_, want, _ := modelinfo(t, "-model", path)
	code, out, errOut := modelinfo(t, "-model", store.PathFor("p"))
	if code != 0 {
		t.Fatalf("-model: exit %d, stderr:\n%s", code, errOut)
	}
	if out != want {
		t.Errorf("versioned checkpoint prints\n%s\nthe unversioned one prints\n%s", out, want)
	}
}

// TestModelKeyTwice: a checkpoint that gives "trees" twice, which no
// writer produces and a shard's loader refuses, exits 1 and prints
// nothing.
func TestModelKeyTwice(t *testing.T) {
	path, ff := checkpoint(t)
	data, err := ff.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte(`{"trees":[],`), data[1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := modelinfo(t, "-model", path)
	if code != 1 || !strings.Contains(errOut, `key "trees" given twice`) {
		t.Errorf("trees given twice: exit %d, stderr %q, want 1 and the key named", code, errOut)
	}
	if out != "" {
		t.Errorf("trees given twice: stdout %q, want nothing", out)
	}
}
