package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as selflearnvet when SELFLEARNVET_MAIN
// is set, so the tests below drive the real command: its flags, exit
// status and output.
func TestMain(m *testing.M) {
	if os.Getenv("SELFLEARNVET_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selflearnvet runs the command in dir and returns its exit code,
// stdout and stderr.
func selflearnvet(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "SELFLEARNVET_MAIN=1")
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

// tempModule writes a one-package module holding src and returns its
// directory.
func tempModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string]string{
		"go.mod":     "module vetcase\n\ngo 1.22\n",
		"vetcase.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFlags(t *testing.T) {
	code, out, errOut := selflearnvet(t, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exit %d, stderr:\n%s", code, errOut)
	}
	for _, name := range []string{"hotpathalloc", "nowallclock", "wirebounds", "unlockedsend"} {
		if !strings.Contains(out, name+":") {
			t.Errorf("-list does not name %s:\n%s", name, out)
		}
	}

	if code, _, errOut := selflearnvet(t, ".", "-bogus"); code != 1 {
		t.Errorf("unknown flag: exit %d, want 1; stderr:\n%s", code, errOut)
	}

	// cmd/go asks a vet tool for its flag inventory as a JSON array.
	if code, out, _ := selflearnvet(t, ".", "-flags"); code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("-flags: exit %d, stdout %q, want 0 and []", code, out)
	}
}

func TestFindings(t *testing.T) {
	clean := tempModule(t, `package vetcase

func Add(a, b int) int { return a + b }
`)
	if code, _, errOut := selflearnvet(t, clean, "./..."); code != 0 {
		t.Fatalf("clean package: exit %d, want 0; stderr:\n%s", code, errOut)
	}

	// A package doc marker puts the whole package under nowallclock.
	wallclock := tempModule(t, `// Package vetcase replays deterministically.
//
//selflearn:deterministic
package vetcase

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
	code, _, errOut := selflearnvet(t, wallclock, "./...")
	if code != 2 {
		t.Fatalf("wall-clock read in a deterministic package: exit %d, want 2; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "[nowallclock]") {
		t.Fatalf("no nowallclock finding in stderr:\n%s", errOut)
	}
}
