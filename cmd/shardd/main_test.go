package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"selflearn/internal/cluster"
)

// TestMain runs the test binary as shardd when SHARDD_MAIN is set, so
// the tests below drive the real command: its flags, exit status, log
// lines and signal handling.
func TestMain(m *testing.M) {
	if os.Getenv("SHARDD_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func shardd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SHARDD_MAIN=1")
	return cmd
}

func TestRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown admission", []string{"-admission", "bogus"}, "-admission"},
		// The shard's own address must be one of the fleet's.
		{"self not in fleet", []string{"-listen", "127.0.0.1:0", "-peers", "127.0.0.1:1,127.0.0.1:2"}, "not in fleet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := shardd(ctx, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("shardd %v: err %v, want a nonzero exit; stderr:\n%s", tc.args, err, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not name %q:\n%s", tc.want, &stderr)
			}
		})
	}
}

// TestServesAndShutsDown starts shardd on a free port, waits for the
// readiness line perfbench parses, connects a router through the wire
// handshake, and stops the shard with SIGTERM.
func TestServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := shardd(ctx, "-listen", "127.0.0.1:0", "-workers", "1", "-rate", "128")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	var logged []string
	var addr string
	for addr == "" {
		line, ok := <-lines
		if !ok {
			cmd.Wait()
			t.Fatalf("shardd exited before serving:\n%s", strings.Join(logged, "\n"))
		}
		logged = append(logged, line)
		if _, rest, ok := strings.Cut(line, "serving on "); ok {
			addr, _, _ = strings.Cut(rest, " (")
		}
	}

	r, err := cluster.Dial([]string{addr}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(5 * time.Second); err != nil {
		t.Fatalf("router never saw %s ready: %v", addr, err)
	}
	r.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		logged = append(logged, line)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("shardd after SIGTERM: %v\n%s", err, strings.Join(logged, "\n"))
	}
	all := strings.Join(logged, "\n")
	for _, want := range []string{"shutting down", "served 0 windows"} {
		if !strings.Contains(all, want) {
			t.Errorf("log lacks %q:\n%s", want, all)
		}
	}
}
