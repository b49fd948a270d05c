package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
)

// TestSmoke builds the real vgiwsim binary and runs it the ways its users
// do: the whole registry on VGIW and on SIMT, and the SGMF-mappable kernels
// on SGMF. vgiwsim checks every simulation against its kernel's host
// reference and exits 1 on a mismatch, so a zero exit with one "validated"
// line per kernel is an output check. An unknown kernel exits 1 and an
// unknown flag, -fast among them, exits 2 before anything runs. The
// -metrics file is a metrics snapshot that benchgate accepts.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vgiwsim")
	metrics := filepath.Join(dir, "metrics.json")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sgmfKernels := []string{"bfs.kernel2", "cfd.initialize_variables", "ge.fan1", "nn.euclid", "pf.normalize_weights"}
	for _, c := range []struct {
		args      []string
		code      int
		validated int
	}{
		{[]string{"-kernel", "all", "-arch", "vgiw"}, 0, len(kernels.All())},
		{[]string{"-kernel", "all", "-arch", "simt"}, 0, len(kernels.All())},
		{[]string{"-arch", "sgmf", "-kernel", strings.Join(sgmfKernels, ",")}, 0, len(sgmfKernels)},
		{[]string{"-kernel", "no.such"}, 1, 0},
		{[]string{"-fast", "-kernel", "bfs.kernel1"}, 2, 0},
		{[]string{"-kernel", "nn.euclid", "-metrics", metrics}, 0, 1},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("vgiwsim %v: exit %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			continue
		}
		if got := strings.Count(stdout.String(), "output validated against the host reference."); got != c.validated {
			t.Errorf("vgiwsim %v: %d kernels validated, want %d", c.args, got, c.validated)
		}
	}
	b, err := bench.LoadBaseline(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Kind() != "metrics" {
		t.Errorf("-metrics wrote a %s file, want a metrics snapshot", b.Kind())
	}
}
