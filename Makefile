# Convenience targets around dune. Everything is reproducible from a
# seed; scale and repetitions come from environment knobs:
#
#   RSJ_N1, RSJ_N2     outer/inner relation sizes of the paper harness
#                      (defaults 10_000 / 40_000)
#   RSJ_DOMAIN         distinct join values (default 1_000)
#   RSJ_SCALE          multiplies n1/n2/domain (default 1)
#   RSJ_SEED           workload seed (default 0x5EED)
#   RSJ_REPS           median-of-k wall-clock repetitions (default 1)
#   RSJ_BENCH_QUOTA    seconds per bechamel micro-test (default 0.5)
#   RSJ_PAR_N1         outer size of the parallel/* benches
#                      (default 1_000_000)
#   RSJ_SKIP_MICRO=1   skip the bechamel micro-benchmarks
#   RSJ_SKIP_PAPER=1   skip the paper-harness figures
#   RSJ_ONLY_PARALLEL=1  run only the parallel/* benches
#   RSJ_CONF_TRIALS    samples per conformance cell (default 60;
#                      raise for a deep statistical sweep)
#   RSJ_DOMAINS        comma list of domain counts the parallel test
#                      suite exercises (default 1,2,4)
#   RSJ_CHUNK_SIZE     chunk-queue scheduler chunk size override
#   RSJ_TRACE          telemetry switch: RSJ_TRACE=1 (or =path.json)
#                      makes any rsj command record spans and write a
#                      Chrome Trace Event JSON on exit
#   RSJ_TRACE_CAP      per-domain trace ring capacity in events
#                      (default 32768; overflow counts as dropped)
#   RSJ_LOG            daemon request log: RSJ_LOG=path.ndjson appends
#                      one JSON line per served request (id, strategy,
#                      picker reason, cache hit/miss, deadline verdict,
#                      latency, allocated words)
#   RSJ_SLOW_MS        slow-request threshold for the exemplar counter
#                      and trace instants (default 100)
#   RSJ_QUALITY_WINDOW draws per online quality chi-square window
#                      (default 512)
#   RSJ_QUALITY_ALPHA  lifetime false-alert budget per quality stream
#                      (default 0.01, alpha-spending across windows)
#   RSJ_SERVE_BIAS=1   serve deliberately biased draws (negative
#                      control: the quality monitor must catch it)
#   RSJ_SERVE_DRAIN_LINGER_MS  keep the drain loop alive this long
#                      after SIGTERM so probes can see the 503
#                      /healthz verdict (default 0)

.PHONY: all build check test smoke bench bench-parallel bench-json pool conformance obs quality trace serve serve-test serve-bench clean

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
# with the knobs above.
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
# (The committed file still holds the boxed-vs-int "dataplane" and the
# cdf-vs-alias "draw_plane" sections, recorded before the boxed chunked
# runners and the RSJ_DRAW toggle were retired; a rerun drops them.)
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

# serve-bench = the cold-vs-warm load harness: one-shot `rsj sample`
# subprocesses vs the same requests against a warm daemon, written to
# BENCH_serve.json (p50/p99/qps; RSJ_SERVE_SOAK_SECONDS adds a soak
# phase; SERVE_CLIENTS concurrent connections, default 4).
SERVE_CLIENTS ?= 4
serve-bench:
	dune exec bin/rsj.exe -- bench-serve --clients $(SERVE_CLIENTS) --out BENCH_serve.json

clean:
	dune clean
