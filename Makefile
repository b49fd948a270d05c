GO ?= go

.PHONY: check build test vet race bench bench-record trace-check serve-check bench-smoke gate-check analyze verify-check fuzz-smoke fmt

# check is the full pre-merge gate, in order: gofmt, go vet, then the repo's
# own static-analysis suite (`analyze` — determinism taint, lock discipline,
# goroutine lifecycle, hot-path allocations, trace.Sink nil guards and
# context polling, all in strict suppression-audit mode, a hard failure),
# then build, the test suite under the race detector, the verifier gates
# (invalid-kernel corpus, checked pipelines, a short fuzz smoke), one
# iteration of each perf-guard benchmark (allocs/op regressions show up
# even at -benchtime=1x) and of the registry-wide ablations, the
# trace/metrics schema gate, the metric
# regression gate against the checked-in baselines, the daemon smoke test,
# and the benchmark module's own tests. Static gates run first so a bad tree
# fails in seconds, not after the benches.
check: fmt vet analyze build race verify-check fuzz-smoke bench trace-check gate-check serve-check bench-smoke

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
# deliberately broken passes. TestMalformedInputSameError runs malformed
# kernels and launches through the interpreter and all three machines,
# which must each return kir's one input check's error and never panic.
verify-check:
	$(GO) test ./internal/verify/ ./internal/fabric/ -run 'Test'
	$(GO) test . -run 'TestMalformedInputSameError'
	$(GO) test ./internal/compile/ -run 'TestBrokenPassCaught|TestCheckedCompileCatchesMutation|TestVerifyGraphCatchesCorruption|TestRegistryPipelinesChecked|TestCheckSelectChain'

# fuzz-smoke runs the parser/verifier/interp fuzzer, the job-spec
# decode/normalize fuzzer and the slot allocator's oracle fuzzer briefly —
# enough to catch gross regressions without holding up the gate.
fuzz-smoke:
	$(GO) test ./internal/verify/ -run '^$$' -fuzz FuzzKasmVerify -fuzztime 5s
	$(GO) test ./internal/bench/ -run '^$$' -fuzz FuzzJobSpec -fuzztime 5s
	$(GO) test ./internal/mem/ -run '^$$' -fuzz FuzzSlotAlloc -fuzztime 5s

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
# The engine benchmarks report threads/s beside ns/op; the ledger records
# both.
ENGINE_BENCH = BenchmarkEngineHotPath|BenchmarkEngineVector|BenchmarkEngineFast
# The memory-model microbenchmarks (AccessWord across bank counts and
# conflict rates; SlotAlloc on a fixed mixed ready stream, which fails if it
# allocates) ride the same trajectory file.
MEM_BENCH = BenchmarkMemAccessWord|BenchmarkSlotAlloc
# The SIMT layer's row: every registry kernel at scale 1 through the SIMT
# model alone (compiled outside the timer), with B/op and allocs/op beside
# ns/op.
SIMT_BENCH = BenchmarkSIMTRun
# bench runs every benchmark with nothing piped after it, so one that fails,
# panics or does not build fails `make check`. BenchmarkAblations runs each
# remaining ablation knob over the whole registry at scale 2 (about 4 s), so a
# knob that stops building or a kernel that fails its output check under one
# fails the gate too. Its ns/op is not compared:
# the BENCH_engine.json rows come from different hosts, so a comparison
# would track the host, not the code. To compare on demand, pipe a run into
# benchgate, which reports any row that moved more than 10% either way:
#   go test -run '^$' -bench BenchmarkEngine -benchtime 100x ./internal/engine/ | \
#       go run ./cmd/benchgate -baseline BENCH_engine.json -current - -tolerance 0.10
bench:
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH)' -benchtime 100x ./internal/engine/
	$(GO) test -run '^$$' -bench '$(MEM_BENCH)' -benchtime 2000x ./internal/mem/
	$(GO) test -run '^$$' -bench '$(SIMT_BENCH)' -benchtime 5x -benchmem ./internal/simt/
	$(GO) test -run '^$$' -bench BenchmarkRunAllParallel -benchtime 1x ./internal/bench/
	$(GO) test -run '^$$' -bench BenchmarkSuiteColdVsWarm -benchtime 1x ./internal/bench/
	$(GO) test -run '^$$' -bench BenchmarkAblations -benchtime 1x .

# bench-record adds one row per benchmark, tagged with the current commit and
# the fastest of three runs, to the BENCH_engine.json trajectory; rows already
# there are left byte-for-byte as they were. Run it on a quiet machine.
# benchgate exits non-zero when a run fails, so a broken benchmark records
# nothing and fails the target.
bench-record:
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH)' -benchtime 100x -count 3 ./internal/engine/ | \
		$(GO) run ./cmd/benchgate -baseline BENCH_engine.json -current - -update
	$(GO) test -run '^$$' -bench '$(MEM_BENCH)' -benchtime 20000x -count 3 ./internal/mem/ | \
		$(GO) run ./cmd/benchgate -baseline BENCH_engine.json -current - -update
	$(GO) test -run '^$$' -bench '$(SIMT_BENCH)' -benchtime 10x -count 3 -benchmem ./internal/simt/ | \
		$(GO) run ./cmd/benchgate -baseline BENCH_engine.json -current - -update

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

# bench-smoke runs the tests of benchmark/, a module of its own that the
# root `go test ./...` never reaches: the statistics helpers, the shape of
# BENCHMARK.json, and every workload timed and traced at smoke-test sizes,
# output checks included (about 5 s).
bench-smoke:
	$(GO) -C benchmark test ./...

# fmt fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
