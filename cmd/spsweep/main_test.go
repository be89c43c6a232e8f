package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// argsEnv carries the command line of a re-executed test binary.
const argsEnv = "SPSWEEP_TEST_ARGS"

// TestMain doubles as the spsweep command: when argsEnv is set, the test
// binary runs main() on those arguments, so tests drive the real command
// (signals, exit status, stdout) without building it separately.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"spsweep"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spsweep returns a command running spsweep with args.
func spsweep(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\x1f"))
	return cmd
}

// TestInterruptedRunLeavesNoOutput sends SIGINT to a local run after its
// first progress line. The run must print no merged output, write no
// summary and exit non-zero with the resume hint; the cells it cut are
// cancelled, not failed, so status then exits 0 with them pending.
func TestInterruptedRunLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	summary := filepath.Join(dir, "summary.json")
	run := spsweep("run", "-bench", "ocean,fluidanimate,radiosity", "-kinds", "dir,sp",
		"-scales", "0.3", "-jobs", "1", "-dir", store, "-summary", summary)
	var stdout, stderr bytes.Buffer
	run.Stdout = &stdout
	pipe, err := run.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		stderr.WriteString(sc.Text() + "\n")
		if strings.Contains(sc.Text(), "[1/6]") {
			if err := run.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := run.Wait(); err == nil {
		t.Fatalf("interrupted run exited 0; stderr:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("interrupted run printed merged output:\n%s", stdout.String())
	}
	if _, err := os.Stat(summary); !os.IsNotExist(err) {
		t.Fatalf("interrupted run wrote a summary (stat: %v)", err)
	}
	if !strings.Contains(stderr.String(), "'spsweep resume -dir "+store+"' continues") {
		t.Fatalf("no resume hint; stderr:\n%s", stderr.String())
	}

	out, err := spsweep("status", "-dir", store).CombinedOutput()
	if err != nil {
		t.Fatalf("status after an interrupt: %v\n%s", err, out)
	}
	if m := regexp.MustCompile(`jobs: +\d/6 complete, ([1-9]) pending`).FindSubmatch(out); m == nil {
		t.Fatalf("status does not show the cut cells pending:\n%s", out)
	}
}
