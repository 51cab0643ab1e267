GO ?= go

.PHONY: build test reach bench-check bench-digests verify verify-race race fuzz-smoke cover-xenstore cover-traffic bench bench-smoke bench-compare profile-smoke fsck-smoke gray-smoke cluster-smoke serve-smoke overload-smoke examples-smoke clean

# Newest checked-in benchmark report; bench-compare reruns its figures
# and fails on regression. Override with BASELINE=path to pin another.
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark (bench/) is a separate Go module, so
# `go test ./...` never builds it: vet it, then run its unit tests and
# tiny-scale smoke (~12 s).
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Digest gate for the repository benchmark: every workload at each
# benchmark seed 1..13 for one second. A run must exit 0 and print one
# result line per workload, and every result line must say
# "correct":true (each cell's output SHA-256 matched its recorded
# digest) and "failed":0 — all lines, not only the last one, which for
# --workload all is just the final workload's. ~7 min.
bench-digests:
	@for n in $$(seq 1 13); do \
		out=$$(bash bench/run.sh --workload all --seed $$n --seconds 1) \
			|| { echo "bench-digests: seed $$n: bench/run.sh failed"; exit 1; }; \
		runs=$$(printf '%s\n' "$$out" | grep -c '^workload '); \
		good=$$(printf '%s\n' "$$out" | grep '^{"correct":true,' | grep -c '"failed":0,'); \
		bad=$$(printf '%s\n' "$$out" | grep -E '"correct":false|"failed":[1-9]' || true); \
		echo "bench-digests: seed $$n: $$good of $$runs workloads correct with 0 failed"; \
		[ -z "$$bad" ] && [ "$$runs" -gt 0 ] && [ "$$good" = "$$runs" ] \
			|| { printf '%s\n' "$$bad"; echo "bench-digests: seed $$n: FAIL"; exit 1; }; \
	done
	@echo "bench-digests: every workload matched its digests at every seed"

# Tier-1 gate: build + gofmt + vet + full tests (including the xenstore
# alloc budgets in internal/xenstore/alloc_test.go), then the race detector
# over the packages the parallel engine touches, then the benchmark
# module check and the regression gate against the checked-in
# baseline report.
verify: build
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/experiments ./internal/xenstore ./internal/sim ./internal/profiling ./internal/cluster ./internal/toolstack ./internal/traffic ./internal/core ./internal/console ./internal/noxs ./cmd/chaos ./cmd/lightvm-bench
	$(MAKE) bench-check
	$(MAKE) bench-compare

# Full gate with the race detector over every package (slower than
# `verify`, which races only the concurrency-bearing ones).
verify-race: build
	$(GO) vet ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# 20-second smoke of each xenstore, mm and hv fuzz target (native Go
# fuzzing, seeded by the checked-in corpora under
# internal/*/testdata/fuzz plus the f.Add seeds). The commit,
# allocator and id-table targets cap minimization at 1 s per new
# input: their inputs are operation sequences whose quadratic
# minimization otherwise eats the whole run.
fuzz-smoke:
	$(GO) test ./internal/xenstore -run '^$$' -fuzz '^FuzzPath$$' -fuzztime 20s
	$(GO) test ./internal/xenstore -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime 20s
	$(GO) test ./internal/xenstore -run '^$$' -fuzz '^FuzzTxnCommit$$' -fuzztime 20s -fuzzminimizetime 1s
	$(GO) test ./internal/mm -run '^$$' -fuzz '^FuzzAllocFree$$' -fuzztime 20s -fuzzminimizetime 1s
	$(GO) test ./internal/idtable -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 20s -fuzzminimizetime 1s

# Line-coverage gate for the store: the unit suite plus the
# model-checking harness must keep internal/xenstore at or above 80%.
# The same run writes coverage-xenstore.html first, so CI uploads it
# as an artifact even when the gate fails.
cover-xenstore:
	$(GO) test ./internal/xenstore -coverprofile=xenstore.cover > /dev/null
	$(GO) tool cover -html=xenstore.cover -o coverage-xenstore.html
	@$(GO) tool cover -func=xenstore.cover | awk '/^total:/ { print "xenstore line coverage: " $$3; if ($$3 + 0 < 80) { print "FAIL: below the 80% gate"; exit 1 } }'
	@rm -f xenstore.cover

# Line-coverage gate for the serving plane: the unit suite (with its
# mode x fault-plan x defense conservation table) must keep
# internal/traffic at or above 90%.
cover-traffic:
	$(GO) test ./internal/traffic -coverprofile=traffic.cover > /dev/null
	@$(GO) tool cover -func=traffic.cover | awk '/^total:/ { print "traffic line coverage: " $$3; if ($$3 + 0 < 90) { print "FAIL: below the 90% gate"; exit 1 } }'
	@rm -f traffic.cover

# Profiling smoke: one store-heavy figure at small scale with CPU+heap
# capture. Asserts both pprof files were written non-empty and that the
# JSON report carries the subsystem attribution block.
profile-smoke:
	$(GO) run ./cmd/lightvm-bench -exp fig12a -scale 0.05 -parallel 1 \
		-profile=cpu,heap -profile-dir profiles -json -out profiles/profile-smoke.json
	@for f in profiles/fig12a.cpu.pb.gz profiles/fig12a.heap.pb.gz; do \
		[ -s $$f ] || { echo "FAIL: $$f missing or empty"; exit 1; }; \
	done
	@grep -q '"heap_delta_bytes"' profiles/profile-smoke.json \
		|| { echo "FAIL: no attribution block in profiles/profile-smoke.json"; exit 1; }
	@echo "profile-smoke: per-figure profiles and attribution OK"

# Crash-consistency gate: run the churn figure (which injects
# toolstack crashes at every labeled crash point) and then audit every
# environment the run built with the cross-layer invariant checker.
# Any violation makes lightvm-bench exit non-zero. Also asserts the
# JSON report carries the per-crash-point counters.
fsck-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-churn -scale 0.05 -seed 2 -parallel 1 \
		-fsck -json -out fsck-smoke.json
	@grep -q '"crash_sites"' fsck-smoke.json \
		|| { echo "FAIL: no crash_sites block in fsck-smoke.json"; exit 1; }
	@grep -q '"fsck"' fsck-smoke.json \
		|| { echo "FAIL: no fsck block in fsck-smoke.json"; exit 1; }
	@rm -f fsck-smoke.json
	@echo "fsck-smoke: crash churn scrubbed to zero violations"

# Gray-failure gate: one small ext-gray cell (heartbeat detection,
# lease-fenced failover) plus the cross-layer fsck audit. The generator
# itself enforces zero double-starts and zero lease violations per
# cell — a split-brain or a dirty post-drain state fails the command —
# and -fsck re-audits every environment the run built.
gray-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-gray -scale 0.05 -seed 3 -parallel 1 \
		-fsck -json -out gray-smoke.json
	@grep -q '"fsck"' gray-smoke.json \
		|| { echo "FAIL: no fsck block in gray-smoke.json"; exit 1; }
	@rm -f gray-smoke.json
	@echo "gray-smoke: fenced failover with zero double-starts"

# Sharded-cluster gate: ext-cluster at small scale — the full
# controller/agent protocol (placement waves, heartbeat-detected
# failover, fenced re-placement, live migration) on the parallel
# engine, swept over worker counts 1/2/8 with the in-run byte-equality
# check, then the cross-layer fsck audit over every environment the
# run built. Determinism or invariant violations fail the command.
cluster-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-cluster -scale 0.02 -seed 1 -parallel 1 -fsck
	@echo "cluster-smoke: sharded churn byte-identical across engine worker counts"

# Open-loop serving gate: one small ext-serve run — seeded arrival
# processes driving per-request unikernels, warm pools (reactive and
# predictive), container and process baselines — with the generator's
# own p99 ordering gate (warm pool < cold VM < container on
# boot-dominated cells) and the cross-layer fsck audit over every host
# the run built.
serve-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-serve -scale 0.05 -seed 1 -parallel 1 -fsck
	@echo "serve-smoke: tail ordering holds; hosts fsck clean"

# Overload gate: one small ext-overload run — offered load swept
# through and past each mode's calibrated capacity with the retry
# storm armed. The generator itself asserts the metastability
# signature (defenses off: post-burst goodput collapses below half of
# pre-burst; defenses on: it recovers to >= 95% with a bounded p99),
# so a recovery failure fails the command; -fsck re-audits every host
# the run built.
overload-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-overload -scale 0.05 -seed 1 -parallel 1 -fsck
	@echo "overload-smoke: metastable collapse reproduced and defended; hosts fsck clean"

# Examples gate: run every program under examples/ with `go run` and
# diff its stdout against the checked-in examples/<name>/output.txt; a
# non-zero exit or any byte of difference fails the target. The
# examples are the public lightvm API's only end-to-end callers, and
# every one of them is deterministic, so their output is the API's
# contract.
examples-smoke:
	@for d in examples/*/; do \
		$(GO) run ./$$d > $${d}output.got || { echo "examples-smoke: $$d failed"; rm -f $${d}output.got; exit 1; }; \
		diff -u $${d}output.txt $${d}output.got || { echo "examples-smoke: $$d output differs from $${d}output.txt"; rm -f $${d}output.got; exit 1; }; \
		rm -f $${d}output.got; \
		echo "examples-smoke: $$d ok"; \
	done

# Reachability gate: build cmd/lightvm-bench, cmd/chaos, cmd/tinyx-build
# and every examples/* program with coverage over the whole module, run
# a fixed invocation set (fixed seeds, sequential), and fail unless the
# functions none of them reached are exactly the ones reach-baseline.txt
# lists with a reason. Prints the share of statements reached. Builds
# into .reach/ (~15 s warm).
reach:
	GO=$(GO) bash scripts/reach.sh

# Full-scale replay of every figure with a JSON timing report.
bench:
	$(GO) run ./cmd/lightvm-bench -exp all -parallel 0 -json

# Quick end-to-end pass at 5% scale — exercises every generator, the
# worker pool and the JSON report in a few seconds. The extra
# ext-faults line runs the fault-injection sweep at tiny scale with a
# distinct seed, so the recovery paths get an end-to-end shake too.
# The last line runs every Go microbenchmark once, so a benchmark that
# no longer builds or hits b.Fatal fails here rather than when someone
# next measures with it (~10 s).
bench-smoke:
	$(GO) run ./cmd/lightvm-bench -exp all -scale 0.05 -parallel 0 -json
	$(GO) run ./cmd/lightvm-bench -exp ext-faults -scale 0.02 -seed 7 -parallel 0
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regression gate: replay every figure at smoke scale with the same
# seed as the checked-in baseline and diff the two reports with
# cmd/benchdiff. Sequential (-parallel 1) because allocation counts
# are recorded only on sequential runs; the wall threshold is generous because CI
# runners jitter, while allocation counts are deterministic and gated
# tightly.
# -shards 2 pins the sharded-cluster figures to one engine worker
# count: their tables are identical at every count (gated elsewhere),
# and skipping the in-run 1/2/8 sweep keeps the gate fast.
bench-compare:
	@[ -n "$(BASELINE)" ] || { echo "bench-compare: no BENCH_*.json baseline checked in"; exit 1; }
	@echo "bench-compare: baseline $(BASELINE)"
	$(GO) run ./cmd/lightvm-bench -exp all -scale 0.05 -seed 1 -parallel 1 -shards 2 -json -out bench-fresh.json
	$(GO) run ./cmd/benchdiff -max-wall 75 -max-alloc 10 $(BASELINE) bench-fresh.json
	@rm -f bench-fresh.json

clean:
	rm -f *.cover coverage-xenstore.html fsck-smoke.json gray-smoke.json bench-fresh.json
	rm -rf profiles .bench_build .reach
