package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as reproduce when REPRODUCE_MAIN is
// set, so the tests below drive the real command: its flags, exit
// status and output. The full verdict table takes most of a minute, so
// its golden (testdata/default.golden) is diffed by a CI step, not
// here.
func TestMain(m *testing.M) {
	if os.Getenv("REPRODUCE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reproduce runs the command and returns its exit code, stdout and
// stderr.
func reproduce(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "REPRODUCE_MAIN=1")
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

func TestBadFlag(t *testing.T) {
	code, out, errOut := reproduce(t, "-samples", "three")
	if code != 2 || !strings.Contains(errOut, "-samples") {
		t.Errorf("-samples three: exit %d, stderr %q, want 2 and the flag named", code, errOut)
	}
	if out != "" {
		t.Errorf("-samples three: stdout %q, want nothing", out)
	}
}
