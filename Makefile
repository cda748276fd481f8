# PAINTER reproduction — stdlib-only Go.

GO ?= go

# package:floor table enforced by `make cover`. The failure-handling
# core sits at 70. The BGP engine carries a higher floor: the delta
# engine's differential and metamorphic suites are its correctness
# argument. The tenant control plane carries its own: spec validation,
# the store's optimistic concurrency, and the reconcile state machine
# are all small, fully-exercisable surfaces. The solver core's floor
# guards the grow loop and the learned-preference store, whose
# differential, golden and fuzz suites are what keep configurations
# byte-identical.
COVER_FLOORS = painter/internal/netsim:70 painter/internal/tm:70 painter/internal/chaos:70 \
	painter/internal/bgp:85 painter/internal/tenant:80 painter/internal/core:80

# Native fuzz targets smoke-tested by `make fuzz` (one -fuzz per run).
FUZZ_TIME ?= 10s

.PHONY: all build loc vet test race tm-stress fuzz cover lint bench bench-smoke bench-check bench-e2e profile-solve experiments clean

all: build vet test

build:
	$(GO) build ./...

# Size of the product: non-test Go lines outside the benchmark module
# (bench/, .bench_build/) and the testdata fixtures the go tool ignores,
# top-level funcs and methods, exported and
# package-local (so unexporting surface shows as a move between them),
# the distinct metric names those files register (string literals
# passed to .Counter, .Gauge, .GaugeFunc or .Histogram), and the struct
# fields they declare (FIELDS_AWK).
loc:
	@files=$$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path '*/testdata/*'); \
	echo "non-test Go lines: $$(cat $$files | wc -l)"; \
	echo "exported funcs:    $$(cat $$files | grep -cE '^func (\([^)]*\) )?[A-Z]')"; \
	echo "unexported funcs:  $$(cat $$files | grep -cE '^func (\([^)]*\) )?[a-z_]')"; \
	echo "registered metric names: $$(cat $$files | grep -oE '\.(Counter|Gauge|GaugeFunc|Histogram)\("[^"]*"' | sort -u | wc -l)"; \
	echo "struct fields:     $$(cat $$files | awk '$(FIELDS_AWK)')"

# FIELDS_AWK counts the fields declared inside struct {...} blocks of
# gofmt'd Go: one per name (a, b T counts two), one per embedded field,
# in multi-line blocks and in one-line struct{...} types.
FIELDS_AWK = function names(d,  m) { sub(/[ \t]*\/\/.*$$/, "", d); sub(/^[ \t]+/, "", d); if (d == "" || d ~ /^}/) return 0; m = 1; while (match(d, /^[A-Za-z_][A-Za-z0-9_]*, /)) { m++; d = substr(d, RLENGTH + 1) }; return m } \
	depth > 0 { if ($$0 ~ /^[ \t]*}/) { depth--; next }; n += names($$0); if ($$0 ~ /struct \{$$/) depth++; next } \
	{ rest = $$0; while (match(rest, /struct\{[^}]+\}/)) { body = substr(rest, RSTART + 7, RLENGTH - 8); rest = substr(rest, RSTART + RLENGTH); k = split(body, parts, ";"); for (i = 1; i <= k; i++) n += names(parts[i]) }; if ($$0 ~ /struct \{$$/) depth = 1 } \
	END { print n + 0 }

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck when installed (CI
# installs it, the dev container may not have it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet ran)"; \
	fi

# -shuffle=on randomizes test order every run, flushing out hidden
# inter-test state; failures print the shuffle seed for replay.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./internal/tm/ ./internal/tm/netio/ ./internal/tmproto/ ./internal/bgp/ ./internal/routeserver/ ./internal/netsim/emul/ ./internal/core/ ./internal/netsim/ ./internal/chaos/ ./internal/obs/ ./internal/obs/span/ ./internal/obs/history/ ./internal/obs/alert/ ./internal/controlapi/ ./internal/usergroup/ ./internal/tenant/ ./internal/measurement/

# The TM's failure-detection tests run on real sockets and the wall
# clock, with bounds a few milliseconds wide: twenty runs under the race
# detector find the scheduling a single run does not.
tm-stress:
	$(GO) test -race -count=20 -run 'Failover|Detect|Loss|Recovery' ./internal/tm/

# Short fuzzing smoke on the wire decoders, the propagation engine, the
# solver's learned-preference store and its grow loop: each target runs
# for FUZZ_TIME (go test allows one -fuzz pattern per invocation).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZ_TIME) ./internal/tmproto/
	$(GO) test -run='^$$' -fuzz=FuzzGREDecode -fuzztime=$(FUZZ_TIME) ./internal/tmproto/
	$(GO) test -run='^$$' -fuzz=FuzzParseUpdate -fuzztime=$(FUZZ_TIME) ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzParseOpen -fuzztime=$(FUZZ_TIME) ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzParseNotification -fuzztime=$(FUZZ_TIME) ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzParseHeader -fuzztime=$(FUZZ_TIME) ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzPropagateDelta -fuzztime=$(FUZZ_TIME) ./internal/bgp/
	$(GO) test -run='^$$' -fuzz=FuzzLearnExpect -fuzztime=$(FUZZ_TIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzGrowAgainstReference -fuzztime=$(FUZZ_TIME) ./internal/core/

# Coverage with a per-package floor (the COVER_FLOORS table).
cover:
	@mkdir -p results
	$(GO) test -coverprofile=results/coverage.out -covermode=atomic $(foreach pf,$(COVER_FLOORS),$(firstword $(subst :, ,$(pf))))
	@bad=0; for pf in $(COVER_FLOORS); do \
		$(GO) test -cover $${pf%:*} 2>/dev/null | awk -v floor=$${pf#*:} ' \
			/coverage:/ { \
				pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
				if (pct + 0 < floor) { printf "FAIL: %s below %s%% coverage floor\n", $$2, floor; bad = 1 } \
				else { printf "ok: %s %s%%\n", $$2, pct } \
			} \
			END { exit bad }' || bad=1; \
	done; exit $$bad

bench:
	$(GO) test -bench=. -benchmem ./...

# Compile-and-run every benchmark once (-benchtime=1x): catches bit-rot
# in benchmark code without paying for real measurement. CI runs this.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# CPU profile of the peering-scale learned solve (solve-cold's instance,
# four learning rounds) at one and two cores, printed as the 30 heaviest
# nodes by cumulative time. The profile stays in results/solve-cpu.prof.
# BenchmarkSolveLearned/peering reuses one world across reps, so the
# simulator's caches are warm after the first: the profile under-weights
# the executor against solve-cold, which builds a fresh world per op.
profile-solve:
	@mkdir -p results
	$(GO) test -run='^$$' -bench='SolveLearned/peering' -benchtime=4x -cpu=1,2 \
		-cpuprofile=results/solve-cpu.prof -o results/painter.test .
	$(GO) tool pprof -top -cum -nodecount=30 results/painter.test results/solve-cpu.prof

# The benchmark (BENCHMARK.json, bench/) is a module of its own, so the
# root `go test ./...` does not reach it: vet and test it from its
# directory, then run its smoke pass through the driver's entry point.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

# The benchmark as the driver runs it: all four workloads, 30 s each,
# one driver line per workload; exits non-zero if any operation failed.
# A performance PR pastes the four lines.
bench-e2e:
	bash bench/run.sh -seconds 30

# Regenerate every table/figure at prototype (PEERING) scale.
experiments:
	$(GO) run ./cmd/painter-bench -exp all -scale peering -iters 3

clean:
	$(GO) clean ./...
	rm -f coverage.out results/coverage.out
