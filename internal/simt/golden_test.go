package simt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kernels"
	"vgiw/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/simt_golden.txt from the current SIMT results")

// goldenTraceKernel is the traced kernel whose Chrome-trace export the
// golden pins: it diverges and waits at barriers, so the issue, stall,
// divergence, reconvergence and barrier events all appear.
const goldenTraceKernel = "nw.needle1"

// TestSIMTGolden pins the SIMT model's timing under both scheduling
// policies: every registry kernel runs at scale 1 under LRR and GTO, and
// every Result field plus a hash of the final memory image must match
// testdata/simt_golden.txt, as must the hash of one traced kernel's Chrome
// trace export. Host-side rewrites of the warp pipeline must leave all of it
// unchanged; a deliberate model change regenerates the file with
// `go test ./internal/simt -run TestSIMTGolden -update-golden`.
func TestSIMTGolden(t *testing.T) {
	var got strings.Builder
	for _, spec := range kernels.All() {
		w, err := kernels.NewWorkload(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := compile.Compile(w.Kernel())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, pol := range []SchedPolicy{SchedLRR, SchedGTO} {
			cfg := DefaultConfig()
			cfg.Scheduler = pol
			global := w.Global()
			res, err := NewMachine(cfg).RunCtx(context.Background(), ck, w.Launch, global)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, pol, err)
			}
			if err := w.Check(global); err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, pol, err)
			}
			fmt.Fprintf(&got, "%s %v mem=%s %+v\n", spec.Name, pol, imageHash(global), *res)
		}
	}
	got.WriteString(goldenTrace(t))

	golden := filepath.Join("testdata", "simt_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/simt -run TestSIMTGolden -update-golden` to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d changed:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// goldenTrace runs goldenTraceKernel under LRR with every trace category on
// and renders the event count and a hash of the Chrome-trace export.
func goldenTrace(t *testing.T) string {
	t.Helper()
	spec, ok := kernels.ByName(goldenTraceKernel)
	if !ok {
		t.Fatalf("%s missing from the registry", goldenTraceKernel)
	}
	w, err := kernels.NewWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := compile.Compile(w.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Trace = trace.NewSink(trace.CatAll)
	res, err := NewMachine(cfg).RunCtx(context.Background(), ck, w.Launch, w.Global())
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergences == 0 || res.Barriers == 0 {
		t.Fatalf("%s no longer diverges and waits at barriers (%d divergences, %d barriers); pick another traced kernel",
			goldenTraceKernel, res.Divergences, res.Barriers)
	}
	if cfg.Trace.Dropped() != 0 {
		t.Fatalf("trace dropped %d events", cfg.Trace.Dropped())
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("trace %s %v events=%d sha256=%s\n",
		goldenTraceKernel, cfg.Scheduler, cfg.Trace.Len(), hex.EncodeToString(sum[:]))
}

// imageHash is a short digest of a memory image (little-endian words).
func imageHash(words []uint32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range words {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
