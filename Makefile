# Developer entry points. `make check` is the documented pre-merge
# gate: vet, formatting, a 32-bit build, and the full test suite under
# the race detector (the telemetry layer is lock-free atomics — races
# there are exactly what -race exists to catch).

GO ?= go

.PHONY: build build-386 test check fmt vet race fuzz bench bench-json experiments serve-smoke fleet-smoke overload-smoke perfbench

build:
	$(GO) build ./...

# Cross-build the whole tree for a 32-bit target, where int is 32 bits:
# constants and table indexes that only fit a 64-bit int fail here.
build-386:
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# Boot the real aspend binary on an ephemeral port, parse a document,
# check /healthz and /metrics, and drain it with SIGTERM.
serve-smoke:
	sh scripts/serve-smoke.sh

# Boot a real 3-node fleet behind aspen-router, fan out an admin
# mutation, SIGKILL a session's owner mid-stream, and require the
# byte-identical failover conclusion plus membership reconvergence.
fleet-smoke:
	sh scripts/fleet-smoke.sh

# Boot a 2-node fleet (one node gray-slow via the latency fault
# injector) behind a hedging router, flood one tenant, and require the
# quiet tenant unshed with bounded latency, zero non-shed flood errors,
# and the overload metric surfaces live.
overload-smoke:
	sh scripts/overload-smoke.sh

# Short coverage-guided runs of every native fuzz target: streaming
# equivalence (chunk-boundary lexing, chunked-vs-whole parsing), the
# merged-DFA scan against its NFA reference, the
# software-parser differential, the XML pipeline, checkpoint
# serialize/restore round-tripping, the registry journal record
# codec, and the LR table construction against its canonical-then-merge
# reference. Checked-in seed corpora run on plain `go test`; this explores
# beyond them. Bump FUZZTIME for a real session. Go allows one -fuzz
# pattern per invocation, hence one line per target.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTokenizeChunkResume -fuzztime $(FUZZTIME) ./internal/lexer
	$(GO) test -run '^$$' -fuzz FuzzScanMatchesNFA -fuzztime $(FUZZTIME) ./internal/lexer
	$(GO) test -run '^$$' -fuzz FuzzStreamChunkedVsWhole -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzParsers -fuzztime $(FUZZTIME) ./internal/swparse
	$(GO) test -run '^$$' -fuzz FuzzXMLPipeline -fuzztime $(FUZZTIME) ./internal/lang
	$(GO) test -run '^$$' -fuzz FuzzCheckpointRestoreRoundTrip -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzJournalRecord -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzEngineDifferential -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzAdmitUpload -fuzztime $(FUZZTIME) ./internal/admit
	$(GO) test -run '^$$' -fuzz FuzzLALRMatchesReference -fuzztime $(FUZZTIME) ./internal/lr

# The served-path benchmark (perfbench/) is its own Go module, so
# `go build ./...` and the race run above never compile it; vet and
# test it here so a change to an API it calls breaks this gate.
perfbench:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Pre-merge check: run before every merge/PR.
check: vet fmt build-386 race serve-smoke fleet-smoke overload-smoke fuzz perfbench

bench:
	$(GO) test -bench . -benchtime 1x ./internal/bench

# Refresh the committed perf-trajectory baselines (BENCH_serve.json and
# BENCH_engine.json at the repo root). Diff against a previous snapshot
# with scripts/bench-compare.sh OLD.json BENCH_serve.json.
bench-json:
	$(GO) run ./cmd/aspen-bench -only serve -json .
	$(GO) run ./cmd/aspen-bench -only engine -json .

experiments:
	$(GO) run ./cmd/aspen-bench -o EXPERIMENTS.md
