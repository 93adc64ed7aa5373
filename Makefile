# Convenience wrappers; everything is plain dune underneath.

.PHONY: all build test bench bench-quick bench-smoke bench-par bench-dense bench-serve bench-zdd bench-scale bench-check-dense bench-check-serve bench-check-zdd bench-check-par bench-check-scale fault-smoke trace-smoke serve-smoke metrics-smoke scale-smoke perfbench-smoke doc examples clean

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe -- --table all --table ablation --table methods \
	  --table pricing --timing --csv bench_results.csv 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- --no-csv --table fig1 --table 1 --table 3

# tight-budget sanity sweep: the easy aggregate
# (--no-csv: partial runs must not clobber a full run's bench_results.csv)
bench-smoke:
	dune exec bench/main.exe -- --no-csv --table easy

# sequential-vs-parallel comparison at both wiring levels (components of
# block-diagonal composites, then whole-instance batches), leaving
# BENCH_par.json behind; JOBS=0 means the machine's recommended count
JOBS ?= 0
bench-par:
	dune exec bench/main.exe -- --no-csv --table par --jobs $(JOBS)

# dense bit-slice kernels vs the sparse lists: registry-wide identity
# sweep plus kernel timings on the dense+difficult suites, leaving
# BENCH_dense.json behind
bench-dense:
	dune exec bench/main.exe -- --no-csv --table dense --reduce-reps 5 \
	  --dense-json BENCH_dense.json

# ZDD manager lifecycle: the row-family build, then the generational
# collector and chain fast paths on the full implicit fixpoint (registry
# suites plus seeded large instances), leaving BENCH_zdd.json behind;
# every gated fact is machine-independent (fingerprints, gc-on peaks,
# the node ceiling, chain hits)
bench-zdd:
	dune exec bench/main.exe -- --no-csv --table zdd --zdd-json BENCH_zdd.json

# big-instance pipeline: the adversarial scale tier (planted/powerlaw/
# beasley-wide/multi-component) stream-parsed in both text formats,
# fold-memory gauged, then solved under a deterministic 2000-step
# budget so the gated costs are machine-independent; plus the
# espresso/KISS routing checks.  Leaves BENCH_scale.json behind.
bench-scale:
	dune exec bench/main.exe -- --no-csv --table scale \
	  --scale-json BENCH_scale.json

# regression gates: each re-runs the benchmark its committed baseline
# describes and compares (speedup ratios for the dense baseline, so the
# gate is machine-independent); nonzero exit on regression
bench-check-dense:
	dune exec bench/main.exe -- --check bench/BASELINE_dense.json

# the ucp_serve daemon under load: throughput + warm cache, forced
# overload shedding, and the fault-injection torture mix, leaving
# BENCH_serve.json behind; the check variant gates on the committed
# baseline (booleans and counts only — never wall-clock)
bench-serve:
	dune exec bench/main.exe -- --no-csv --table serve \
	  --serve-json BENCH_serve.json

bench-check-serve:
	dune exec bench/main.exe -- --check bench/BASELINE_serve.json

bench-check-zdd:
	dune exec bench/main.exe -- --check bench/BASELINE_zdd.json

# parallel determinism + speedup floors (>= 1.0x on multicore hosts,
# 0.95x single-core noise allowance; see bench/BASELINE_par.json)
bench-check-par:
	dune exec bench/main.exe -- --check bench/BASELINE_par.json

# scale gate: streaming round-trip identity, planted certificates,
# fold-memory ratios and the routing booleans against the committed
# baseline (budgeted costs compared exactly — never wall-clock)
bench-check-scale:
	dune exec bench/main.exe -- --check bench/BASELINE_scale.json

# resource-governor sanity: the fault-injection and typed-failure suites
# plus the CLI exit-code contract (also part of the default `dune runtest`)
fault-smoke:
	dune build @fault-smoke

# telemetry sanity: traced solves over the difficult suite with full
# JSON-lines schema validation, plus the telemetry unit suite and a
# CLI-produced trace (also exercised by the default `dune runtest`)
trace-smoke:
	dune build @trace-smoke

# daemon sanity: the serve test suite plus a self-hosted torture run of
# the load generator with fault injection and asserted response codes
# (the suite is also part of the default `dune runtest`)
serve-smoke:
	dune build @serve-smoke

# observability sanity: the metrics registry unit suite, then a real
# ucp_serve booted with an access log and driven by ucp_load — the
# load generator's --check-invariants makes the daemon's final STATS
# balance its own books, ucp_top renders against the live socket, and
# the access log is schema-validated line by line
metrics-smoke:
	dune build @metrics-smoke

# big-instance sanity: the scale unit suite (generator certificates,
# parser round-trips, fold memory), then ucp_gen -> ucp_solve through
# the shipped binaries with the planted certificate grepped from the
# answer and the truncated/garbage exit-code contract re-pinned.
# UCP_SCALE_BIG=1 widens the suite to the >= 100 MB stream and the
# 10^5-column solve.
scale-smoke:
	dune build @scale-smoke

# the end-to-end benchmark's own tests (perfbench/README.md): tiny runs
# of all three workloads, traced and untraced, with the determinism and
# answer checks
perfbench-smoke:
	python3 perfbench/test_perfbench.py

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/two_level.exe
	dune exec examples/covering_demo.exe
	dune exec examples/binate_demo.exe
	dune exec examples/fsm_demo.exe
	dune exec examples/convergence.exe
	dune exec examples/multistart.exe

clean:
	dune clean
