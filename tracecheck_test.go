package vgiw

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_golden.txt from the current metric names")

// TestTraceCheck is the `make trace-check` gate: run one small kernel on all
// three backends with tracing on, validate the Chrome trace-event export
// against the schema the viewers require, check the VGIW track shows the
// paper's structure (block-vector spans and reconfiguration windows), and
// diff the metric-name schema against the checked-in golden file.
func TestTraceCheck(t *testing.T) {
	spec, ok := kernels.ByName("bfs.kernel2")
	if !ok || !spec.SGMF {
		t.Fatal("bfs.kernel2 missing or no longer SGMF-mappable; pick another small kernel for trace-check")
	}

	opt := bench.DefaultOptions()
	opt.Scale = 1
	opt.Trace = trace.NewSink(trace.CatAll)
	kr, err := bench.RunOneCtx(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if kr.VGIW == nil || kr.SIMT == nil || kr.SGMF == nil {
		t.Fatalf("trace-check needs all three backends; got vgiw=%v simt=%v sgmf=%v",
			kr.VGIW != nil, kr.SIMT != nil, kr.SGMF != nil)
	}

	// Export + schema validation.
	var buf bytes.Buffer
	if err := opt.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace export fails schema validation: %v", err)
	}
	if n == 0 {
		t.Fatal("trace export contains no events")
	}

	// The VGIW track must show the coalescing structure: block-vector spans
	// (labelled by basic block) and reconfiguration windows on the bbs track.
	checkVGIWTrack(t, buf.Bytes(), spec.Name)

	// Metric-name schema golden. The suffix set (everything after
	// "<kernel>/") is backend-determined, so one three-backend kernel pins
	// the full schema.
	reg := bench.CollectMetrics([]*bench.KernelRun{kr})
	got := strings.Join(bench.MetricSuffixes(reg), "\n") + "\n"
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestTraceCheck -update-golden .` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("metric name schema changed (run with -update-golden if intended).\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// checkVGIWTrack decodes the trace JSON and asserts the "<kernel>/vgiw"
// process has a "bbs" thread carrying both reconfiguration spans and
// block-vector execution spans.
func checkVGIWTrack(t *testing.T, data []byte, kernel string) {
	t.Helper()
	type record struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Pid  int32           `json:"pid"`
		Tid  int32           `json:"tid"`
		Dur  int64           `json:"dur"`
		Args json.RawMessage `json:"args"`
	}
	var doc struct {
		TraceEvents []record `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// Resolve the VGIW process and its bbs thread from the name metadata.
	vgiwPid, bbsTid := int32(-1), int32(-1)
	names := func(r record) map[string]string {
		var m map[string]string
		json.Unmarshal(r.Args, &m)
		return m
	}
	for _, r := range doc.TraceEvents {
		if r.Ph == "M" && r.Name == "process_name" && names(r)["name"] == kernel+"/vgiw" {
			vgiwPid = r.Pid
		}
	}
	if vgiwPid < 0 {
		t.Fatalf("no %s/vgiw process in trace", kernel)
	}
	for _, r := range doc.TraceEvents {
		if r.Ph == "M" && r.Name == "thread_name" && r.Pid == vgiwPid && names(r)["name"] == "bbs" {
			bbsTid = r.Tid
		}
	}
	if bbsTid < 0 {
		t.Fatal("vgiw process has no bbs track")
	}
	reconfigs, blockVectors := 0, 0
	for _, r := range doc.TraceEvents {
		if r.Ph != "X" || r.Pid != vgiwPid || r.Tid != bbsTid {
			continue
		}
		if r.Name == "reconfig" {
			reconfigs++
			continue
		}
		var args map[string]int64
		if json.Unmarshal(r.Args, &args) == nil {
			if _, ok := args["threads"]; ok {
				blockVectors++
			}
		}
	}
	if reconfigs == 0 {
		t.Error("bbs track has no reconfiguration spans")
	}
	if blockVectors == 0 {
		t.Error("bbs track has no block-vector spans")
	}
}
