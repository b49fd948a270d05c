package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeCheck is the `make serve-check` gate: it builds the real vgiwd
// binary, boots it on an ephemeral port, exercises the job API end to end
// (submit, wait, poll, cancel, metrics scrape), then SIGTERMs it and
// requires a clean drain with exit status 0.
func TestServeCheck(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "vgiwd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4", "-drain-timeout", "30s")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill() //nolint:errcheck // backstop; the happy path waits below

	// The daemon prints its bound address on stdout for exactly this use.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "vgiwd listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // keep the pipe drained

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v / %+v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Submit-and-wait a fast job; its result must parse as a report.
	var done struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	postJSON(t, base+"/v1/jobs?wait=1", `{"kernel":"bfs.kernel1"}`, &done)
	if done.State != "done" || len(done.Result) == 0 {
		t.Fatalf("fast job: %+v", done)
	}

	// Submit a slow job, poll it into running, cancel it.
	var slow struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	postJSON(t, base+"/v1/jobs", `{"kernel":"hotspot.kernel","scale":4}`, &slow)
	deadline := time.Now().Add(30 * time.Second)
	for slow.State != "running" {
		if time.Now().After(deadline) {
			t.Fatalf("slow job stuck in %q", slow.State)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, base+"/v1/jobs/"+slow.ID, &slow)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+slow.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &slow)
	if slow.State != "cancelled" {
		t.Fatalf("cancelled job reports %q", slow.State)
	}

	// The metrics exposition must carry the server counters.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`vgiw_metric{name="vgiwd/jobs_admitted"} 2`,
		`vgiw_metric{name="vgiwd/jobs_cancelled"}`,
		`vgiw_hist_count{name="vgiwd/run_ms"}`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb)
		}
	}

	// Leave one queued job behind, then SIGTERM: the drain must finish it
	// and the process must exit 0.
	var last struct {
		ID string `json:"id"`
	}
	postJSON(t, base+"/v1/jobs", `{"kernel":"bfs.kernel2"}`, &last)
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- daemon.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("daemon exited %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain within 60s")
	}
	if !strings.Contains(stderr.String(), "vgiwd: drained") {
		t.Errorf("drain footer missing from stderr:\n%s", stderr.String())
	}
	// The final metrics flush is the drain's flight recorder: the queued
	// job must have completed, not been killed.
	if !strings.Contains(stderr.String(), `vgiw_metric{name="vgiwd/jobs_completed"} 2`) {
		t.Errorf("final metrics do not show the drained job completing:\n%s", stderr.String())
	}
}

// buildDaemon compiles the real vgiwd binary into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "vgiwd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon boots the binary and waits for its bound-address announcement.
func startDaemon(t *testing.T, bin string, args ...string) (daemon *exec.Cmd, base string, stderr *bytes.Buffer) {
	t.Helper()
	daemon = exec.Command(bin, args...)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr = new(bytes.Buffer)
	daemon.Stderr = stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { daemon.Process.Kill() }) //nolint:errcheck // backstop
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "vgiwd listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // keep the pipe drained
	return daemon, base, stderr
}

// drainDaemon SIGTERMs the daemon and requires a clean exit.
func drainDaemon(t *testing.T, daemon *exec.Cmd, stderr *bytes.Buffer) {
	t.Helper()
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- daemon.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("daemon exited %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain within 60s")
	}
}

// TestServeCheckStore is the restart acceptance test for -store-dir: a
// result computed before a SIGTERM restart is served byte-identically (and
// marked "cached": "store") after it, the history API lists it, and the
// drain leaves a vgiw-metrics/v1 "shutdown" snapshot in the store.
func TestServeCheckStore(t *testing.T) {
	bin := buildDaemon(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4",
		"-drain-timeout", "30s", "-store-dir", storeDir}

	type jobResp struct {
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Cached string          `json:"cached"`
		Result json.RawMessage `json:"result"`
	}

	// First life: compute a result, then drain.
	daemon, base, stderr := startDaemon(t, bin, args...)
	var first jobResp
	postJSON(t, base+"/v1/jobs?wait=1", `{"kernel":"bfs.kernel1"}`, &first)
	if first.State != "done" || len(first.Result) == 0 {
		t.Fatalf("first life job: %+v", first)
	}
	if first.Cached != "" {
		t.Fatalf("first run claims cached=%q", first.Cached)
	}
	drainDaemon(t, daemon, stderr)
	if !strings.Contains(stderr.String(), "shutdown snapshot persisted") {
		t.Errorf("no shutdown-snapshot note in stderr:\n%s", stderr.String())
	}
	snap, err := os.ReadFile(filepath.Join(storeDir, "shutdown.snapshot.json"))
	if err != nil {
		t.Fatalf("shutdown snapshot: %v", err)
	}
	if !strings.Contains(string(snap), `"schema":"vgiw-metrics/v1"`) {
		t.Errorf("shutdown snapshot is not a vgiw-metrics/v1 document:\n%s", snap)
	}

	// Second life, same store: the same spec must come back from disk,
	// byte-identical.
	daemon2, base2, stderr2 := startDaemon(t, bin, args...)
	var second jobResp
	postJSON(t, base2+"/v1/jobs?wait=1", `{"kernel":"bfs.kernel1"}`, &second)
	if second.State != "done" {
		t.Fatalf("second life job: %+v", second)
	}
	if second.Cached != "store" {
		t.Errorf(`restart hit not marked: cached = %q, want "store"`, second.Cached)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", second.Result, first.Result)
	}
	var hist struct {
		Entries []struct {
			Key    string `json:"key"`
			Kernel string `json:"kernel"`
		} `json:"entries"`
	}
	getJSON(t, base2+"/v1/history", &hist)
	if len(hist.Entries) != 1 || hist.Entries[0].Kernel != "bfs.kernel1" {
		t.Errorf("history after restart: %+v", hist.Entries)
	}
	drainDaemon(t, daemon2, stderr2)
}

// TestServeCheckDrainOnAnnounce SIGTERMs the daemon the moment it announces
// its address. A client may signal as soon as it has the address, so the
// drain handler must already be installed and the exit must be clean.
func TestServeCheckDrainOnAnnounce(t *testing.T) {
	bin := buildDaemon(t)
	for i := 0; i < 5; i++ {
		daemon, _, stderr := startDaemon(t, bin, "-addr", "127.0.0.1:0")
		drainDaemon(t, daemon, stderr)
	}
}

func TestVersionFlag(t *testing.T) {
	// In-process: run() handles -version without touching the network.
	var out strings.Builder
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	code := run([]string{"-version"})
	w.Close()
	os.Stdout = old
	io.Copy(&out, r) //nolint:errcheck
	if code != 0 {
		t.Fatalf("-version exited %d", code)
	}
	if !strings.HasPrefix(out.String(), "vgiw ") {
		t.Errorf("-version output %q", out.String())
	}
}

func postJSON(t *testing.T, url, body string, into any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, into)
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, into)
}

func decodeInto(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("%s %s: %d\n%s", resp.Request.Method, resp.Request.URL, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("bad response %q: %v", raw, err)
	}
}
