package nvmetro_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateCLI = flag.Bool("update", false, "rewrite testdata/cli/*.golden from the current programs")

// TestCLIGolden pins the facade's non-test callers: it builds nvmetroctl and
// every example, runs each at its default flags (nvmetroctl with no
// subcommand and with each subcommand) and compares stdout and the exit
// status with testdata/cli/<name>.golden. Run with -update to rewrite the
// goldens.
func TestCLIGolden(t *testing.T) {
	bin := t.TempDir()
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []string{"./cmd/nvmetroctl"}
	for _, dir := range examples {
		pkgs = append(pkgs, "./"+dir)
	}
	build := exec.Command("go", append([]string{"build", "-o", bin + "/"}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	type run struct {
		golden string
		prog   string
		args   []string
	}
	runs := []run{{"nvmetroctl", "nvmetroctl", nil}}
	for _, sub := range []string{"qos", "chaos", "scrub", "snap", "shard"} {
		runs = append(runs, run{"nvmetroctl_" + sub, "nvmetroctl", []string{sub}})
	}
	for _, dir := range examples {
		name := filepath.Base(dir)
		runs = append(runs, run{"example_" + name, name, nil})
	}

	for _, r := range runs {
		t.Run(r.golden, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, r.prog), r.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			status := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				status = exit.ExitCode()
			}
			got := fmt.Sprintf("%s[exit %d]\n", stdout.String(), status)
			path := filepath.Join("testdata", "cli", r.golden+".golden")
			if *updateCLI {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s %s: output differs from %s\n--- got ---\n%s--- want ---\n%s--- stderr ---\n%s",
					r.prog, strings.Join(r.args, " "), path, got, want, stderr.String())
			}
		})
	}
}

// TestBenchCLIFailsOnUnwritableCSV: nvmetro-bench reports a -csv directory
// it cannot create on stderr and exits 1, after printing the table.
func TestBenchCLIFailsOnUnwritableCSV(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "nvmetro-bench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/nvmetro-bench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-run", "table1", "-quick", "-csv", filepath.Join(file, "csv"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	if !strings.Contains(stdout.String(), "Classifier") || !strings.Contains(stderr.String(), "not a directory") {
		t.Fatalf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
