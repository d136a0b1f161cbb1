GO ?= go

.PHONY: ci fmt vet build test race determinism faults perfbench bench lint

# ci is the gate every PR must pass: formatting, static checks (go vet +
# the repo's own contract analyzers), build, the full test suite, the race
# detector over the concurrent paths (batch pipeline + network server +
# shared dsp scratch), the batch-determinism contract, the
# crash-consistency fault-injection suite, and the end-to-end benchmark's
# own smoke tests.
ci: fmt vet lint build test race determinism faults perfbench

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# vet also checks the portable build: on arm64 no assembly kernel exists,
# so the Go-only dispatch path must compile and vet clean on its own.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# lint runs the softlora contract analyzers (internal/lint): determinism,
# hotpath, allocfree, complex64 widening, bufpool ownership, lock/shard
# discipline — interprocedurally, over the call graph of the whole load.
# -tests extends the load to each package's test variants, so contract
# regressions in _test.go helpers are caught too (package-wide directives
# still scope only to non-test files).
# See "Static contracts" in ROADMAP.md for the directives they understand.
lint:
	$(GO) run ./cmd/softlora-lint -tests ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -run Batch .
	$(GO) test -race ./internal/netserver
	$(GO) test -race -run 'Concurrent|Parallel|Race' ./internal/dsp

# determinism re-runs the ordered-commit contracts explicitly: verdicts and
# serialized bias-database bytes must be identical for every worker count
# (batch pipeline), with the AIC detector's float32 decision lanes toggled
# on or off (OnsetFloat64), and for every delivery schedule of the same
# copies (streaming dedup window).
determinism:
	$(GO) test -count=1 -run 'TestProcessBatchSameDeviceDeterministicCommit|TestProcessBatchDeterministicAcrossWorkerCounts|TestProcessBatchDeterministicAcrossFloatLanes|TestMultiGatewayDeterministic' .
	$(GO) test -count=1 -run 'TestChaosDatabaseBytesScheduleIndependent|TestCheckBatchOrderIndependentDatabase' ./internal/netserver

# faults replays the fault-injection suites: the filesystem injector
# (internal/faultinject) kills a bias-database flush at every filesystem
# operation — crash-before and crash-after — plus the recoverable-error
# retry and silent-bit-flip quarantine paths; the delivery chaos harness
# (TestChaos*) drives the streaming dedup window through duplicated,
# reordered, delayed and dropped schedules and asserts one committed
# verdict per frame with schedule-independent database bytes; then short
# fuzz passes over the snapshot decoder and over the dsp kernel tiers'
# bit parity (FuzzKernelParity). The contracts in internal/netserver/doc.go
# are exactly what this target enforces.
faults:
	$(GO) test -count=1 ./internal/faultinject
	$(GO) test -count=1 -run 'TestCrash|TestFault|TestChaos' ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzLoadShard$$' -fuzztime 10s ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzKernelParity$$' -fuzztime 10s ./internal/dsp

# perfbench runs the end-to-end benchmark's own tests (perfbench is a
# module of its own, so ./... at the root does not reach it): a short run
# of each workload, the traced run's stage replay checked bit for bit
# against Gateway.Observe, and the verdict digest compared across set-ups.
perfbench:
	cd perfbench && $(GO) test -count=1 ./...

# bench refreshes BENCH_softlora.json (the cross-PR perf trajectory).
bench:
	sh scripts/bench.sh
