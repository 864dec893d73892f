package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the test binary as selflearnval when SELFLEARNVAL_MAIN
// is set, so the tests below drive the real command: its flags, exit
// status and output. The chb01 event-level report takes seconds, so its
// golden (testdata/chb01-eventlevel.golden) is diffed by a CI step, not
// here.
func TestMain(m *testing.M) {
	if os.Getenv("SELFLEARNVAL_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selflearnval runs the command and returns its exit code, stdout and
// stderr.
func selflearnval(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "SELFLEARNVAL_MAIN=1")
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

func TestUnknownPatient(t *testing.T) {
	code, out, errOut := selflearnval(t, "-patient", "chb99")
	if code != 1 || !strings.Contains(errOut, "chb99") {
		t.Errorf("-patient chb99: exit %d, stderr %q, want 1 and the id named", code, errOut)
	}
	if out != "" {
		t.Errorf("-patient chb99: stdout %q, want nothing", out)
	}
}

// TestGenericNeedsCatalog refuses -generic with -patient before any
// work: the generic arm trains on other patients' seizures.
func TestGenericNeedsCatalog(t *testing.T) {
	start := time.Now()
	code, out, errOut := selflearnval(t, "-patient", "chb01", "-generic")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("-patient chb01 -generic took %v, want a refusal before any work", elapsed)
	}
	if code != 2 || !strings.Contains(errOut, "-generic") {
		t.Errorf("-patient chb01 -generic: exit %d, stderr %q, want 2 and the flag named", code, errOut)
	}
	if out != "" {
		t.Errorf("-patient chb01 -generic: stdout %q, want nothing", out)
	}
}
