package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
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

// TestBadFormatRefusedBeforeStore: an unknown -format is refused before
// anything runs — non-zero exit, no stdout and no store directory — for
// run and resume alike.
func TestBadFormatRefusedBeforeStore(t *testing.T) {
	for _, sub := range []string{"run", "resume"} {
		store := filepath.Join(t.TempDir(), "store")
		args := []string{sub, "-dir", store, "-summary", "", "-format", "bogus"}
		if sub == "run" {
			args = append(args, "-bench", "x264", "-kinds", "dir", "-scales", "0.05")
		}
		cmd := spsweep(args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("%s -format bogus exited 0; stderr:\n%s", sub, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s -format bogus printed:\n%s", sub, stdout.String())
		}
		if _, err := os.Stat(store); !os.IsNotExist(err) {
			t.Fatalf("%s -format bogus created the store (stat: %v); stderr:\n%s", sub, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), `unknown format "bogus"`) {
			t.Fatalf("%s -format bogus: no diagnosis; stderr:\n%s", sub, stderr.String())
		}
	}
}

// TestWorkerCountRecorded: -jobs <= 0 runs runtime.NumCPU() workers, and
// the header line and the summary record that count, not the flag value.
func TestWorkerCountRecorded(t *testing.T) {
	want := runtime.NumCPU()
	for _, jobs := range []string{"0", "-3"} {
		dir := t.TempDir()
		summary := filepath.Join(dir, "summary.json")
		cmd := spsweep("run", "-bench", "x264", "-kinds", "dir", "-scales", "0.05", "-jobs", jobs,
			"-dir", filepath.Join(dir, "store"), "-summary", summary)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-jobs %s: %v; stderr:\n%s", jobs, err, stderr.String())
		}
		if header := fmt.Sprintf(" on %d workers\n", want); !strings.Contains(stderr.String(), header) {
			t.Fatalf("-jobs %s: header does not say %q; stderr:\n%s", jobs, header, stderr.String())
		}
		b, err := os.ReadFile(summary)
		if err != nil {
			t.Fatal(err)
		}
		var s struct{ Workers int }
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		if s.Workers != want {
			t.Fatalf("-jobs %s: summary records %d workers, want %d", jobs, s.Workers, want)
		}
	}
}
