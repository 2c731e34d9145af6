# Build/verify entry points. `make verify` is the full pre-merge gate:
# gofmt + vet + build + full tests + the race detector over the short suite (the
# parallel experiment runner makes concurrency real, so every sink the
# worker pool touches must stay race-free) + the diff smoke + the
# benchmark's pins.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test fmt vet inlinecheck race race-full verify benchpins bench benchpair benchquick fuzz-short cover diff-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting gate: gofmt -l over the tracked Go files (so build and smoke
# directories such as .bench_build/ and .diffsmoke/ stay out), printing and
# failing on any file it lists.
fmt:
	@files=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt -l lists unformatted files:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Inlining guard: the FIFO reads of every arbiter scan (Fifo.Peek, CanPop,
# CanPush) must inline at their call sites, the largest share of the cost
# cut described in DESIGN.md §20 ("The cost of an awake edge"). A check
# that formats a panic message inside one of them pushes it over the
# compiler's inlining budget, and this target then fails.
inlinecheck:
	@out=$$($(GO) build -gcflags=-m ./internal/stbus ./internal/lmi 2>&1) || { echo "$$out"; exit 1; }; \
	for m in Peek CanPop CanPush; do \
		echo "$$out" | grep -qE "inlining call to sim\.\(\*Fifo\[.*\]\)\.$$m$$" || \
		{ echo "inlinecheck: no call to sim.(*Fifo[...]).$$m is inlined in internal/stbus or internal/lmi"; exit 1; }; \
	done

# Race pass runs in short mode: the wall-clock-heavy regeneration tests
# skip themselves, while every concurrent path (runner fan-out, parallel
# figure tests, determinism-under-runner) still executes under the
# detector.
race:
	$(GO) test -race -short ./...

# Full-suite race pass (CI's race-full job): the internal/runner worker pool
# runs simulations concurrently, the -live server and the experiments hub
# read the telemetry collector from other goroutines, and the AsyncFifo SPSC
# stress test hands a CDC FIFO's two sides between goroutines, so those
# tests and the long regeneration tests that -short skips all run under the
# detector.
race-full:
	$(GO) test -race ./...

verify: fmt vet build inlinecheck test race diff-smoke benchpins

# The benchmark's pins: one job of every perfbench workload at seed 1 must
# simulate exactly the pinned counts. perfbench is a module of its own, so
# `go test ./...` does not reach it; CI runs the same command as its own
# step.
benchpins:
	cd perfbench && $(GO) test .

# §19 differential-observability smoke: two fabric variants replay the same
# captured trace, their reports diff into a parseable mpsocsim.diff/1
# document that is byte-identical across invocations, and the snapshot
# bisection localizes a seeded wait-state perturbation to a concrete cycle
# (diverged_at >= 0 — the grep digit class rejects the no-divergence -1).
# CI runs the same commands in its diff-smoke step.
diff-smoke:
	rm -rf .diffsmoke && mkdir -p .diffsmoke
	$(GO) build -o .diffsmoke/mpsocsim ./cmd/mpsocsim
	.diffsmoke/mpsocsim -set scale=0.2 -capture .diffsmoke/trace.bin >/dev/null
	.diffsmoke/mpsocsim -set scale=0.2 -replay .diffsmoke/trace.bin -report .diffsmoke/a.json >/dev/null
	.diffsmoke/mpsocsim -set scale=0.2 -set protocol=ahb -replay .diffsmoke/trace.bin -replay-mode elastic -report .diffsmoke/b.json >/dev/null
	.diffsmoke/mpsocsim diff .diffsmoke/a.json .diffsmoke/b.json > .diffsmoke/d1.json
	.diffsmoke/mpsocsim diff .diffsmoke/a.json .diffsmoke/b.json > .diffsmoke/d2.json
	cmp .diffsmoke/d1.json .diffsmoke/d2.json
	grep -q '"schema": "mpsocsim.diff/1"' .diffsmoke/d1.json
	printf '[platform]\nmemory = onchip\nwaitstates = 2\nscale = 0.1\n' > .diffsmoke/b.conf
	.diffsmoke/mpsocsim -set memory=onchip -set scale=0.1 -bisect .diffsmoke/b.conf -bisect-grid 512 > .diffsmoke/bisect.json
	grep -q '"kind": "bisect"' .diffsmoke/bisect.json
	grep -q '"diverged_at": [0-9]' .diffsmoke/bisect.json
	rm -rf .diffsmoke

# Size trajectory figures: non-test Go lines per package directory and
# their total, over the tracked files outside perfbench/, then the flag
# count of each CLI (the option lines its -h prints: two spaces and a dash).
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^perfbench/' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
	@for c in mpsocsim experiments; do \
	printf '%7d  %s flags\n' $$($(GO) run ./cmd/$$c -h 2>&1 | grep -c '^  -') $$c; done

# Coverage over the full suite: writes the raw profile (coverage.out, the CI
# artifact) and prints the per-function summary with the total at the bottom.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Short coverage-guided fuzz of the decoders of external input: the trace
# and snapshot binaries, the platform spec reader, and the run report JSON
# and telemetry NDJSON readers behind `mpsocsim diff` (seed corpora live in
# each package's testdata/fuzz). Ten seconds apiece is enough to exercise
# the mutation engine against every validation path on each run; longer
# local sessions just raise -fuzztime. Go allows one -fuzz target per
# invocation, hence one line each. The snapshot and diff seeds are whole
# snapshots, reports and streams of tens of kB, which Go's default
# 60-second minimization of every new input spends the whole budget on
# (the snapshot fuzzer ran 360 inputs in ten seconds), so those lines cap
# it at 20 runs.
fuzz-short:
	$(GO) test ./internal/tracecap -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/platform -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/platform -run '^$$' -fuzz FuzzParsePlatform -fuzztime 10s
	$(GO) test ./internal/diff -run '^$$' -fuzz FuzzReports -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/diff -run '^$$' -fuzz FuzzStreams -fuzztime 10s -fuzzminimizetime 20x

# The repository benchmark (perfbench/, declared in BENCHMARK.json): one
# 28-second run of each workload through perfbench/run.sh, which builds
# into .bench_build/. Each run ends with its result line; perfbench/README.md
# explains the metrics and how to compare two commits (--compare).
# `make benchquick` is the smoke variant: every Go benchmark once.
BENCH_WORKLOADS = ref_lmi io_tail variant_sweep observe_replay

bench:
	for w in $(BENCH_WORKLOADS); do bash perfbench/run.sh --workload $$w --seconds 28 || exit 1; done

# Paired comparison with a base revision: PAIRS alternating pairs of
# SECONDS-long runs of workload W at traffic seed SEED, the base exported
# into .benchpair/base (tools/benchpair.sh). It prints every run's
# end-to-end metrics, then per metric both sides' median and quartiles, the
# change of the medians and the pairs the working tree won.
BASE ?= HEAD
PAIRS ?= 10
SECONDS ?= 28
SEED ?= 1

benchpair:
	@test -n "$(W)" || { echo "usage: make benchpair BASE=<rev> W=<workload> [PAIRS=10 SECONDS=28 SEED=1]"; exit 2; }
	bash tools/benchpair.sh $(BASE) $(W) $(PAIRS) $(SECONDS) $(SEED)

benchquick:
	$(GO) test -bench=. -benchtime=1x ./...
