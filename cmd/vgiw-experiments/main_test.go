package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vgiw/internal/kernels"
)

// TestSmoke builds the real vgiw-experiments binary and runs it at scale 1
// with the LVC sweep and the telemetry table, which together reach every
// figure's code, the artifact cache and the sweep's worker pool. The
// harness checks every simulation against its kernel's host reference and
// reports the runs that passed on stderr, so a zero exit with all 21 runs
// validated is an output check. An unknown flag, -fast among them, exits 2
// before anything runs.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "vgiw-experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	validated := fmt.Sprintf("%d runs validated against the host references", len(kernels.All()))
	for _, c := range []struct {
		args []string
		code int
		want []string // substrings of stdout+stderr
	}{
		{[]string{"-scale", "1", "-lvc-sweep", "-telemetry"}, 0,
			[]string{validated, "LVC size sweep", "Figure 7"}},
		{[]string{"-scale", "1", "-fast", "-fig7"}, 2, nil},
	} {
		var out bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		code := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("vgiw-experiments %v: exit %d, want %d; output:\n%s", c.args, code, c.code, out.String())
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("vgiw-experiments %v: output lacks %q", c.args, w)
			}
		}
	}
}
