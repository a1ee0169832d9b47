# Convenience targets around dune. Everything is reproducible from a
# seed. `dune exec bin/rsj.exe -- config` lists every RSJ_* knob the
# library and CLI read (name, effective value, source, doc); the bench
# harness additionally reads RSJ_BENCH_QUOTA, RSJ_PAR_N1,
# RSJ_SKIP_MICRO, RSJ_SKIP_PAPER and RSJ_ONLY_PARALLEL (bench/main.ml),
# and the test suite RSJ_DOMAINS and RSJ_COVERAGE_TRIALS.

.PHONY: all build check test smoke bench bench-parallel bench-json pool conformance obs quality trace serve serve-test serve-bench perfbench-ab digest loc clean

all: build

build:
	dune build

test:
	dune runtest

# check = the tier-1 gate: full build + unit tests.
check:
	dune build && dune runtest

# smoke = check + a tiny paper-harness run (seconds, not minutes).
smoke:
	dune build @smoke

# conformance = the statistical sweep: every strategy × semantics ×
# skew × domains against the exact join-distribution oracle. Fast by
# default; RSJ_CONF_TRIALS=500 (etc.) for a deep run.
conformance:
	dune build @conformance

# bench = the full harness: paper figures + bechamel micro-benchmarks
# (including the parallel/* speedup benches). Expect minutes; scale
# with the RSJ_N1/RSJ_N2/RSJ_DOMAIN/RSJ_SCALE/RSJ_REPS knobs.
bench:
	dune exec bench/main.exe

# bench-parallel = the parallel runtime on its own: the equivalence
# tests at RSJ_DOMAINS ∈ {1, 2, 4} (@parallel-equiv), then only the
# parallel/* bechamel benches — per-strategy runs at d ∈ {1, 2, 4}
# plus the static-shards-vs-chunk-queue skew comparison. Speedups
# need real spare cores; on a single-core host expect overhead.
bench-parallel:
	dune build @parallel-equiv
	RSJ_ONLY_PARALLEL=1 dune exec bench/main.exe

# bench-json = machine-readable perf trajectory: strategy × domains
# median wall-times over the pooled runtime plus the domain-pool spawn
# counters and the telemetry pass, written to BENCH_parallel.json.
# CI-friendly scale (RSJ_PAR_N1 default 100_000; RSJ_REPS medians,
# default 3).
bench-json:
	dune exec bench/main.exe -- --json

# pool = the Domain_pool lifecycle + bit-identity suite on its own
# (also runs inside `make test`).
pool:
	dune build @pool

# obs = the telemetry subsystem end to end: unit suite + CLI artifact
# round-trip (trace JSON and Prometheus text parsed back). Also runs
# inside `make test`.
obs:
	dune build @obs

# quality = the online statistical-quality monitor: unit FP/TP cells
# plus the served biased/unbiased verdicts (also runs inside
# `make test`).
quality:
	dune build @quality

# trace = record a parallel run and write trace.json for Perfetto
# (ui.perfetto.dev) or chrome://tracing. Pick the strategy with
# TRACE_STRATEGY (default naive); rsj trace --help for more knobs.
TRACE_STRATEGY ?= naive
trace:
	dune exec bin/rsj.exe -- trace $(TRACE_STRATEGY) --out trace.json --domains 4

# serve = run the sampling daemon on a local socket (SERVE_SOCKET to
# move it; ctrl-C drains, unlinks the socket and snapshots metrics).
SERVE_SOCKET ?= /tmp/rsj.sock
serve:
	dune exec bin/rsj.exe -- serve --socket $(SERVE_SOCKET)

# serve-test = the service tier on its own: the warm-cache unit suite
# plus the live-daemon round trip (also runs inside `make test`).
serve-test:
	dune build @serve @serve-hygiene

# serve-bench = the interleaved telemetry A/B on the served path: two
# rsj serve daemons (telemetry off / RSJ_TRACE + RSJ_LOG on) alternate
# 400 warm requests each; p50/p99 on/off ratios, each side's IQR and
# the host go to BENCH_serve.json. Served latency and throughput at
# scale are perfbench's (python3 perfbench/run.py, BENCHMARK.json).
serve-bench:
	dune build bin/rsj.exe bench/serve_ab.exe
	./_build/default/bench/serve_ab.exe ./_build/default/bin/rsj.exe BENCH_serve.json

# perfbench-ab = the interleaved A/B of the repository benchmark:
# PARENT (a commit) against the working tree, PAIRS runs of WORKLOAD
# (or all) at SECONDS each, alternating which side goes first, seed
# 101 + i for pair i. Both sides are built from copies in a temporary
# directory; per metric it prints each side's median and IQR, every
# pair's change/parent ratio, and every run's failed count.
PARENT ?= HEAD
WORKLOAD ?= strategy_mix
PAIRS ?= 10
SECONDS ?= 25
perfbench-ab:
	python3 tools/perfbench_ab.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(SECONDS)

# digest = the bit-identity digest: one MD5 line per sampling cell
# (reference and pooled runners, WR and WoR, int and string keys, the
# chain walker) and a TOTAL. Run it on two checkouts and compare the
# TOTALs to prove a refactor left every sample unchanged.
digest:
	dune build bench/digest.exe
	./_build/default/bench/digest.exe

# loc = the tracked source size: total lines of every committed .ml,
# .mli and dune file, then the lib + bin .ml/.mli lines alone (the
# figure ROADMAP's line-count gates are stated in).
loc:
	@git ls-files '*.ml' '*.mli' '*dune' | xargs wc -l | tail -1
	@git ls-files 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' | xargs wc -l | tail -1 | sed 's/total/lib + bin .ml\/.mli/'

clean:
	dune clean
