GO ?= go

.PHONY: check build test vet race bench bench-record trace-check serve-check fleet-check gate-check analyze verify-check fuzz-smoke fmt

# check is the full pre-merge gate, in order: gofmt, go vet, then the repo's
# own static-analysis suite (`analyze` — determinism taint, lock discipline,
# goroutine lifecycle, hot-path allocations, trace.Sink nil guards and
# context polling, all in strict suppression-audit mode, a hard failure),
# then build, the test suite under the race detector, the verifier gates
# (invalid-kernel corpus, checked pipelines, a short fuzz smoke), one
# iteration of each perf-guard benchmark (allocs/op regressions show up
# even at -benchtime=1x), the trace/metrics schema gate, the metric
# regression gate against the checked-in baselines, the daemon smoke test,
# and the fleet sweep gate (3 workers, a mid-sweep SIGKILL, byte-identical
# merged results). Static gates run first so a bad tree fails in seconds,
# not after the benches.
check: fmt vet analyze build race verify-check fuzz-smoke bench trace-check gate-check serve-check fleet-check

# analyze runs cmd/vgiwcheck (internal/analysis) over the whole module in
# strict mode: every finding must be fixed or carry a justified
# //vgiw:allow, and stale suppressions themselves fail the gate. The JSON
# stream is the machine artifact; findings land on stderr for humans.
analyze:
	$(GO) run ./cmd/vgiwcheck -root . -strict-suppressions -json > /dev/null || \
		{ $(GO) run ./cmd/vgiwcheck -root . -strict-suppressions 1>&2; exit 1; }

# verify-check exercises the kernel-IR verifier: the invalid-kernel corpus
# must produce its exact diagnostics, every registry kernel must compile
# cleanly through the Checked pipelines, and the mutation tests must catch
# deliberately broken passes.
verify-check:
	$(GO) test ./internal/verify/ ./internal/fabric/ -run 'Test'
	$(GO) test ./internal/compile/ -run 'TestBrokenPassCaught|TestCheckedCompileCatchesMutation|TestVerifyGraphCatchesCorruption|TestRegistryPipelinesChecked|TestCheckSelectChain'

# fuzz-smoke runs the parser/verifier/interp fuzzer briefly — enough to
# catch gross regressions without holding up the gate.
fuzz-smoke:
	$(GO) test ./internal/verify/ -run '^$$' -fuzz FuzzKasmVerify -fuzztime 5s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The engine benchmarks run 100 iterations: the memory system's MSHR slabs
# double occasionally as simulated time advances, so a single iteration can
# observe one such allocation; 100 amortize it and the report must read
# 0 allocs/op (TestEngineHotPathZeroAllocDisabledSink is the hard gate).
# Their output is piped through benchrecord -check, which warns (but never
# fails — wall-clock numbers are too noisy for a hard gate) when ns/op
# regresses >10% against the last entry recorded in BENCH_engine.json.
ENGINE_BENCH = BenchmarkEngineHotPath|BenchmarkEngineVector|BenchmarkEngineFast
# The memory-model microbenchmark (AccessWord across bank counts and
# conflict rates) rides the same trajectory file; -threads 0 skips the
# threads/sec derivation, which only makes sense for the engine scenarios.
MEM_BENCH = BenchmarkMemAccessWord
# The fleet coordinator microbenchmark pushes a 64-job matrix through the
# full dispatch path (ledger, scheduling, HTTP round-trip) against an
# instant stub worker, so ns/op is pure coordination overhead; it rides the
# same trajectory file with -threads 0 (threads/sec is an engine notion).
FLEET_BENCH = BenchmarkCoordinatorDispatch
bench:
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH)' -benchtime 100x ./internal/engine/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_engine.json -threads 512 -check
	$(GO) test -run '^$$' -bench '$(MEM_BENCH)' -benchtime 2000x ./internal/mem/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_engine.json -threads 0 -check
	$(GO) test -run '^$$' -bench '$(FLEET_BENCH)' -benchtime 20x ./internal/fleet/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_engine.json -threads 0 -check
	$(GO) test -run '^$$' -bench BenchmarkRunAllParallel -benchtime 1x ./internal/bench/
	$(GO) test -run '^$$' -bench BenchmarkSuiteColdVsWarm -benchtime 1x ./internal/bench/

# bench-record appends the engine benchmark results (tagged with the current
# commit) to the BENCH_engine.json trajectory. Run it on a quiet machine;
# entries are append-only history.
bench-record:
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH)' -benchtime 100x -count 3 ./internal/engine/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_engine.json -threads 512 -record
	$(GO) test -run '^$$' -bench '$(MEM_BENCH)' -benchtime 20000x -count 3 ./internal/mem/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_engine.json -threads 0 -record
	$(GO) test -run '^$$' -bench '$(FLEET_BENCH)' -benchtime 100x -count 3 ./internal/fleet/ | \
		$(GO) run ./cmd/benchrecord -file BENCH_engine.json -threads 0 -record

# trace-check runs one small kernel on all three backends with tracing on,
# validates the Chrome trace-event export, and diffs the metric-name schema
# against testdata/metrics_golden.txt (regenerate with -update-golden).
trace-check:
	$(GO) test -run TestTraceCheck .

# gate-check is the hard metric regression gate: validate both checked-in
# baseline files, then re-run the suite at BENCH_trace.json's scale and
# require every metric to match exactly (the simulators are deterministic,
# so tolerance 0 is earned; intentional metric changes regenerate the
# baseline with `go run ./cmd/benchgate -baseline BENCH_trace.json -run
# -update`).
gate-check:
	$(GO) run ./cmd/benchgate -validate BENCH_engine.json BENCH_trace.json
	$(GO) run ./cmd/benchgate -baseline BENCH_trace.json -run

# serve-check builds the real vgiwd binary, boots it on an ephemeral port,
# submits/polls/cancels jobs over HTTP, scrapes /metrics, then SIGTERM-drains
# it and requires a clean exit — and, via TestServeCheckStore, boots it with
# a temp -store-dir, restarts it, and requires the stored result to come
# back byte-identical (see cmd/vgiwd/main_test.go).
serve-check:
	$(GO) test -run TestServeCheck ./cmd/vgiwd

# fleet-check is the distributed-sweep acceptance gate: boot three real
# vgiwd workers sharing one result store, push a registry matrix (plus a
# duplicate spec) through vgiwctl, and require the merged report to be
# byte-identical to a single-process RunMatrix with every unique key
# executed exactly once fleet-wide — then repeat with one worker SIGKILLed
# mid-sweep (see cmd/vgiwctl/main_test.go).
fleet-check:
	$(GO) test -run TestFleetCheck ./cmd/vgiwctl

# fmt fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
