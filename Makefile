# Convenience wrappers; everything is plain dune underneath.

.PHONY: all build test bench bench-quick bench-smoke fault-smoke trace-smoke serve-smoke metrics-smoke scale-smoke perfbench-smoke perfbench-ab doc examples clean

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe -- --table all --table ablation --table methods \
	  --csv bench_results.csv 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- --no-csv --table fig1 --table 1 --table 3

# tight-budget sanity sweep: the easy aggregate
# (--no-csv: partial runs must not clobber a full run's bench_results.csv)
bench-smoke:
	dune exec bench/main.exe -- --no-csv --table easy

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
# UCP_SCALE_BIG=1 widens the suite to the >= 100 MB stream, the
# 10^5-column solve and the 512-state KISS machine.
scale-smoke:
	dune build @scale-smoke

# the end-to-end benchmark's own tests (perfbench/README.md): tiny runs
# of all three workloads, traced and untraced, with the determinism and
# answer checks
perfbench-smoke:
	python3 perfbench/test_perfbench.py

# alternating perfbench runs of a base revision (a detached worktree under
# _ab/) against the working tree, with each side's quartiles and the
# change's wins per end-to-end metric:
#   make perfbench-ab BASE=HEAD~1 WORKLOAD=two-level SEED=1 PAIRS=10
PAIRS ?= 10
perfbench-ab:
	python3 tools/perfbench_ab.py --base $(BASE) --workload $(WORKLOAD) \
	  --seed $(SEED) --pairs $(PAIRS)

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
