#!/usr/bin/env python3
"""End-to-end solve benchmark for the ZDD_SCG solver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cyclic-cores --seed 1 --trace 0

It builds the solver from source with dune, writes the seeded inputs of
one workload as files (.ucp, OR-Library or PLA), and then:

* --trace 0: solves the inputs in a closed loop, one cold process per
  solve and one solve at a time, for --seconds seconds (at least two full
  passes over the inputs; by default run_seconds of BENCHMARK.json).
  Every answer is checked independently.  Fresh processes of a fixed
  probe (perfbench/tool/probe.ml) interleaved with the solves gauge the
  host's speed, and the timed metrics are scaled to a reference host.
  The last line of standard output is a JSON object with the end-to-end
  metrics.
* --trace 1: one pass over the same inputs.  For each input a fresh
  process times the public entry point of every layer in pipeline order,
  a second one runs Scg.solve with an active Telemetry collector and a
  third runs it untraced.  The last line holds the per-layer metrics; the
  spans are written to .perfbench/out/.

A human-readable table goes to standard error.  See perfbench/README.md
for the workloads, the metrics and what each layer metric should move.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
SOLVE_EXE = os.path.join(ROOT, "_build", "default", "bin", "ucp_solve.exe")
PB_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "tool", "pb.exe")
PROBE_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "tool", "probe.exe")
OP_TIMEOUT_S = 60.0
# setup_s and probe samples per timed run
SAMPLES = 91
# the probe's lower-quartile time on an idle host (2 vCPUs at 2.0 GHz):
# timed metrics are reported as if measured on that host
PROBE_REF_S = 0.030
PROBE_CHECKSUM = "733108336 13880 30000"
# the trivial instance setup_s is timed on: the odd 5-cycle, optimum 3
TINY_UCP = os.path.join(ROOT, "data", "tiny.ucp")
TINY_COST = 3
# metric names, units and the run length; perfbench/metrics.json only
# documents each metric's kind and the layer it belongs to
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Abort(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# ---------------------------------------------------------------------------
# Processes


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


_current_child = None


def _on_term(signum, frame):
    if _current_child is not None:
        try:
            os.kill(_current_child, signal.SIGKILL)
            os.waitpid(_current_child, 0)
        except OSError:
            pass
    sys.exit(1)


def run_proc(argv, out_path, err_path, timeout=OP_TIMEOUT_S):
    """Run one process to completion with stdout/stderr in files.

    Returns (wall seconds, exit code or None when killed by the timeout,
    peak RSS in KiB, stdout text)."""
    global _current_child
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _current_child = pid
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _current_child = None
    wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as f:
        out = f.read()
    return wall, code, usage.ru_maxrss, out


def build():
    for need in ("dune-project", os.path.join("bin", "ucp_solve.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Abort(f"no solver source here ({need} missing)")
    # no shared dune cache: the build reads and writes only the checkout
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/ucp_solve.exe", "./perfbench/tool/pb.exe",
         "./perfbench/tool/probe.exe"],
        cwd=ROOT,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not all(map(os.path.exists, (SOLVE_EXE, PB_EXE, PROBE_EXE))):
        raise Abort("build failed")
    # names the code under test, so that only its own runs are compared
    digest = hashlib.sha256()
    for exe in (SOLVE_EXE, PB_EXE):
        with open(exe, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Inputs


def generate(workload, seed, work, tiny):
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    r = subprocess.run([PB_EXE, "gen", workload, str(seed), work], stderr=sys.stderr)
    if r.returncode != 0:
        raise Abort("input generation failed")
    with open(os.path.join(work, "manifest.json")) as f:
        inputs = json.load(f)["inputs"]
    if tiny:
        # one input per family: the smoke-test size
        seen = set()
        inputs = [i for i in inputs if not (i["family"] in seen or seen.add(i["family"]))]
    digest = hashlib.sha256()
    for inp in inputs:
        digest.update(inp["file"].encode())
        with open(os.path.join(work, inp["file"]), "rb") as f:
            digest.update(f.read())
    return inputs, digest.hexdigest()[:16]


def solve_argv(inp, work):
    path = os.path.join(work, inp["file"])
    if inp["kind"] == "pla-implicit":
        return [PB_EXE, "solve", "pla-implicit", path, "0"]
    argv = [SOLVE_EXE]
    if inp["kind"] == "pla-multi":
        argv.append("--multi")
    if inp["max_steps"]:
        argv += ["--max-steps", str(inp["max_steps"])]
    return argv + [path]


def accepted_codes(inp):
    # exit-code contract: 0 solved, 3 budget exhausted (answer still valid)
    return (0, 3) if inp["max_steps"] else (0,)


# ---------------------------------------------------------------------------
# Independent answer checker


def read_matrix(path, kind):
    """(rows as lists of 0-based columns, costs) from a .ucp or OR-Library file."""
    rows, costs = [], None
    with open(path) as f:
        if kind == "ucp":
            n_cols = 0
            for line in f:
                line = line.split("#", 1)[0].split()
                if not line:
                    continue
                if line[0] == "p":
                    n_cols = int(line[3])
                elif line[0] == "c":
                    costs = [int(x) for x in line[1:]]
                elif line[0] == "r":
                    rows.append([int(x) for x in line[1:]])
            costs = costs or [1] * n_cols
        else:
            tok = [int(x) for x in f.read().split()]
            m, n = tok[0], tok[1]
            costs, pos = tok[2 : 2 + n], 2 + n
            for _ in range(m):
                k = tok[pos]
                rows.append([c - 1 for c in tok[pos + 1 : pos + 1 + k]])
                pos += 1 + k
    return rows, costs


def answer_of(text):
    """The answer part of a solve's output, without timings: the "scg..."
    header line and what follows it, up to the statistics block (matrix
    answers) or the helper's PB-STATS line.  Format may wrap the column
    list over several lines; it is joined back into one."""
    text = text.split("PB-STATS ", 1)[0]
    at = text.find("scg")
    if at < 0:
        return ""
    text = text[at:]
    if "\ncolumns:" in text:
        head, cols = text.split("\ncolumns:", 1)
        cols = cols.split("\ninput ", 1)[0]
        return f"{head}\ncolumns: {' '.join(cols.split())}\n"
    return text


def parse_header(answer):
    """(cost, lower bound) from the header line of an answer."""
    words = answer.split("\n", 1)[0].replace(",", " ").split()
    nums = [int(w) for w in words if w.isdigit()]
    return (nums[0], nums[1]) if len(nums) >= 2 else None


def check_matrix(rows, costs, answer, certificate):
    head = parse_header(answer)
    if head is None:
        return "no cost line"
    cost, lb = head
    lines = answer.splitlines()
    if len(lines) < 2 or not lines[1].startswith("columns:"):
        return "no column list"
    cols = [int(x) for x in lines[1].split()[1:]]
    chosen = set(cols)
    if len(chosen) != len(cols) or any(c < 0 or c >= len(costs) for c in cols):
        return "malformed column list"
    if not all(any(c in chosen for c in row) for row in rows):
        return "cover is infeasible"
    if sum(costs[c] for c in chosen) != cost:
        return "reported cost differs from the recomputed one"
    if lb > cost:
        return "lower bound above cost"
    if certificate is not None and (lb > certificate or cost != certificate):
        return f"planted certificate {certificate} violated (cost {cost}, lb {lb})"
    return None


def check_answers(answers, inputs, work):
    """Verify each distinct (input index, answer text) pair once; returns
    {(index, text): None | reason}."""
    verdicts, pla_jobs = {}, []
    matrices = {}
    for key in answers:
        idx, text = key
        inp = inputs[idx]
        path = os.path.join(work, inp["file"])
        if inp["kind"] in ("ucp", "orlib"):
            if idx not in matrices:
                matrices[idx] = read_matrix(path, inp["kind"])
            rows, costs = matrices[idx]
            verdicts[key] = check_matrix(rows, costs, text, inp["certificate"])
        else:
            pla_jobs.append(key)
    if pla_jobs:
        listing = os.path.join(work, "check.tsv")
        with open(listing, "w") as f:
            for n, (idx, text) in enumerate(pla_jobs):
                ans = os.path.join(work, f"answer-{n}.txt")
                with open(ans, "w") as a:
                    a.write(text)
                inp = inputs[idx]
                f.write(f"{inp['kind']}\t{os.path.join(work, inp['file'])}\t{ans}\n")
        _, code, _, out = run_proc(
            [PB_EXE, "check-pla", listing],
            os.path.join(work, "check.out"),
            os.path.join(work, "check.err"),
            timeout=120,
        )
        lines = out.splitlines()
        if code != 0 or len(lines) != len(pla_jobs):
            for key in pla_jobs:
                verdicts[key] = "two-level checker failed"
        else:
            for key, line in zip(pla_jobs, lines):
                verdicts[key] = None if line.startswith("ok\t") else line.split("\t", 1)[-1]
    return verdicts


# ---------------------------------------------------------------------------
# Quality and determinism


def quality(costs, lbs, optimal):
    cost_sum, lb_sum = sum(costs), sum(lbs)
    return {
        "cost_sum": cost_sum,
        "lb_sum": lb_sum,
        "gap_pct": 100.0 * (cost_sum - lb_sum) / cost_sum if cost_sum else 0.0,
        "optimal_frac": sum(optimal) / len(optimal) if optimal else 0.0,
        "cost_over_lb": cost_sum / max(lb_sum, 1),
    }


def determinism_check(build_id, workload, seed, fingerprint, values):
    """Compare deterministic outputs with every earlier run of the same
    code (hash of the built executables) on the same inputs (workload,
    seed and input fingerprint) in this checkout; returns the mismatches."""
    path = os.path.join(STATE, "determinism.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = f"{build_id}:{workload}:{seed}:{fingerprint}"
    old = seen.get(key, {})
    mismatches = [
        f"{k}: {old[k]} then {v}" for k, v in values.items() if k in old and old[k] != v
    ]
    if not mismatches:
        old.update(values)
        seen[key] = old
        os.makedirs(STATE, exist_ok=True)
        with open(path, "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
    return mismatches


# ---------------------------------------------------------------------------
# --trace 0: the timed closed loop


def setup_once(out, err):
    """Wall time of one fresh solver process answering the trivial instance."""
    wall, code, _, text = run_proc([SOLVE_EXE, TINY_UCP], out, err)
    head = parse_header(answer_of(text))
    if code != 0 or head is None or head[0] != TINY_COST:
        raise Abort(f"the solver fails the trivial instance (exit {code})")
    return wall


def probe_once(out, err):
    """Wall time of one probe process (perfbench/tool/probe.ml)."""
    wall, code, _, text = run_proc([PROBE_EXE], out, err)
    if code != 0 or text.strip() != PROBE_CHECKSUM:
        raise Abort(f"the host-speed probe failed (exit {code})")
    return wall


def best_of_two(xs):
    """The mean, over all pairs of the samples, of the smaller one: the
    expected best of two solves, whatever the number of samples (at least
    two), so that a run that fits fewer passes is not biased upwards."""
    xs = sorted(xs)
    m = len(xs)
    return sum(x * (m - 1 - i) for i, x in enumerate(xs)) / (m * (m - 1) / 2)


def timed_run(build_id, workload, seed, seconds, tiny):
    work = os.path.join(STATE, "work", f"{workload}-{seed}")
    inputs, fingerprint = generate(workload, seed, work, tiny)
    log(f"perfbench: {workload} seed {seed}: {len(inputs)} inputs, fingerprint {fingerprint}")
    out, err = os.path.join(work, "op.out"), os.path.join(work, "op.err")
    ops = []  # (input index, wall, exit code, rss KiB, answer)
    first_answer = {}
    # setup_s and probe samples are spread evenly over the loop, so that
    # they see the same host conditions as the operations; their time is
    # not loop time
    setup_walls, probe_walls = [], []
    start = time.perf_counter()
    n = 0
    while n < 2 * len(inputs) or time.perf_counter() - start < seconds:
        due = len(setup_walls) * seconds / SAMPLES
        if len(setup_walls) < SAMPLES and time.perf_counter() - start >= due:
            setup_walls.append(setup_once(out, err))
            probe_walls.append(probe_once(out, err))
            continue
        idx = n % len(inputs)
        inp = inputs[idx]
        wall, code, rss, text = run_proc(solve_argv(inp, work), out, err)
        text = answer_of(text)
        first_answer.setdefault(idx, text)
        ops.append((idx, wall, code, rss, text))
        n += 1
    loop_s = time.perf_counter() - start - sum(setup_walls) - sum(probe_walls)

    verdicts = check_answers({(i, t) for i, _, _, _, t in ops}, inputs, work)
    failures = []
    for idx, wall, code, rss, text in ops:
        inp = inputs[idx]
        if code is None:
            why = "timeout"
        elif code not in accepted_codes(inp):
            why = f"exit code {code}"
        elif text != first_answer[idx]:
            why = "answer differs from the first solve of the same input"
        else:
            why = verdicts[(idx, text)]
        if why:
            failures.append(f"{inp['file']}: {why}")

    heads = [parse_header(first_answer[i]) or (0, 0) for i in range(len(inputs))]
    q = quality([h[0] for h in heads], [h[1] for h in heads], [h[0] == h[1] for h in heads])
    mismatches = determinism_check(
        build_id, workload, seed, fingerprint,
        {k: q[k] for k in ("cost_sum", "lb_sum", "optimal_frac")})
    # Short bursts of host contention only ever add time, so each input is
    # timed by the expected faster of two of its solves, and the latency
    # quantiles are taken over inputs.  Longer swings of host speed (half
    # as fast again for minutes) are taken out by the probe: times are
    # scaled to a host on which the probe's lower quartile is PROBE_REF_S.
    best = [best_of_two([o[1] for o in ops if o[0] == i]) for i in range(len(inputs))]
    probe_s = statistics.quantiles(probe_walls, n=4)[0]
    scale = PROBE_REF_S / probe_s
    raw = {
        "solve_s_p50": statistics.median(best),
        "solve_s_p90": statistics.quantiles(best, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_walls),
    }
    values = {
        "solve_s_p50": raw["solve_s_p50"] * scale,
        "solve_s_p90": raw["solve_s_p90"] * scale,
        "solves_per_s": len(inputs) / (sum(best) * scale),
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb_mean": statistics.fmean(o[3] for o in ops) / 1024.0,
        "cost_over_lb": q["cost_over_lb"],
    }
    e2e = {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
    # reported on standard error only (see gap_pct in perfbench/metrics.json)
    shown = dict(e2e)
    shown.update({f"raw {k}": (v, "s") for k, v in raw.items()})
    shown["raw probe"] = (probe_s, "s")
    shown.update({k: (q[k], "") for k in ("cost_sum", "gap_pct", "optimal_frac")})
    shown["failed_frac"] = (len(failures) / len(ops), "")
    log(f"perfbench: {len(ops)} operations in {loop_s:.2f} s "
        f"({len(inputs)} distinct inputs, {len(ops) / len(inputs):.1f} passes), "
        f"{len(ops) / loop_s:.2f} solves/s; times scaled by {scale:.3f}")
    for name, (value, unit) in shown.items():
        log(f"  {name:16s} {value:14.6g} {unit}")
    for why in failures[:20] + mismatches:
        log(f"  FAILED {why}")
    return {
        "correct": not failures and not mismatches,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer replay


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    covered by its children (overlapping children counted once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered, end = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], end), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
            end = max(end, min(c["end"], s["end"]))
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def traced_run(build_id, workload, seed, tiny):
    work = os.path.join(STATE, "work", f"{workload}-{seed}")
    inputs, fingerprint = generate(workload, seed, work, tiny)
    log(f"perfbench: {workload} seed {seed}: {len(inputs)} inputs, fingerprint {fingerprint}")
    tracer = Tracer()
    records, failures = [], []
    for idx, inp in enumerate(inputs):
        op = tracer.new_id()
        start = tracer.now()
        rec, why = trace_input(tracer, op, work, inp)
        tracer.add(op, 0, "op", start, tracer.now(), input=inp["file"])
        if why:
            failures.append(f"{inp['file']}: {why}")
        else:
            records.append(dict(rec, idx=idx, inp=inp))

    verdicts = check_answers({(r["idx"], r["answer"]) for r in records}, inputs, work)
    failures += [f"{inputs[k[0]]['file']}: {v}" for k, v in verdicts.items() if v]

    selft = self_times(tracer.spans)
    metrics = layer_metrics(records)
    heads = [parse_header(r["answer"]) or (0, 0) for r in records]
    q = quality([h[0] for h in heads], [h[1] for h in heads], [h[0] == h[1] for h in heads])
    metrics["scg.cost_sum"] = q["cost_sum"]
    metrics["scg.gap_pct"] = q["gap_pct"]
    metrics["scg.optimal_frac"] = q["optimal_frac"]
    metrics["check.failed_frac"] = len(failures) / len(inputs)
    mismatches = []
    if len(records) == len(inputs):
        mismatches = determinism_check(build_id, workload, seed, fingerprint, {
            "cost_sum": q["cost_sum"], "lb_sum": q["lb_sum"],
            "optimal_frac": q["optimal_frac"],
            "subgradient.steps": metrics["subgradient.steps"],
            "reduce2.core_nnz": metrics["reduce2.core_nnz"],
            "partition.components": metrics["partition.components"]})

    out_dir = os.path.join(STATE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-{seed}-spans.jsonl"), "w") as f:
        for s in tracer.spans:
            f.write(json.dumps(dict(s, self=selft[s["id"]])) + "\n")
    report_families(records)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, unit in units.items():
        log(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    for why in failures[:20] + mismatches:
        log(f"  FAILED {why}")
    return {
        "correct": not failures and not mismatches,
        "attempted": len(inputs),
        "failed": len(inputs) - len(records) + sum(1 for v in verdicts.values() if v),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


class Tracer:
    """Spans of the traced run, kept in memory and written out at the end."""

    def __init__(self):
        self.spans = []
        self.epoch = time.perf_counter()
        self._next = 1

    def new_id(self):
        self._next += 1
        return self._next - 1

    def now(self):
        return time.perf_counter() - self.epoch

    def add(self, sid, parent, name, start, end, **extra):
        self.spans.append(dict(id=sid, parent=parent, name=name, start=start, end=end, **extra))
        return sid

    def process(self, parent, name, argv, work):
        """Run one process under a span; (span id, start, wall, code, stdout)."""
        start = self.now()
        wall, code, _, text = run_proc(
            argv, os.path.join(work, "op.out"), os.path.join(work, "op.err"))
        sid = self.add(self.new_id(), parent, name, start, start + wall)
        return sid, start, wall, code, text


def trace_input(tracer, op, work, inp):
    """Replay the layers on one input, then solve it untraced and traced,
    each in a fresh process.  Returns (record, None) or (None, why)."""
    path = os.path.join(work, inp["file"])
    steps = str(inp["max_steps"] or 0)
    rid, t, _, code, text = tracer.process(
        op, "replay", [PB_EXE, "replay", inp["kind"], path, steps], work)
    if code != 0:
        return None, f"replay exit {code}"
    replay = json.loads(text.splitlines()[-1])
    ids = {s["id"]: tracer.new_id() for s in replay["spans"]}
    for s in replay["spans"]:
        tracer.add(ids[s["id"]], ids.get(s["parent"], rid), s["name"],
                   t + s["start"], t + s["end"])
    runs = {}
    for traced in (False, True):
        name = "solve.traced" if traced else "solve.untraced"
        argv = [PB_EXE, "solve", inp["kind"], path, steps] + (["-t"] if traced else [])
        sid, t, wall, code, text = tracer.process(op, name, argv, work)
        if code not in accepted_codes(inp):
            return None, f"{name} exit {code}"
        runs[traced] = (answer_of(text), json.loads(text.rpartition("PB-STATS ")[2]))
    answer, stats = runs[True]
    if runs[False][0] != answer:
        return None, "traced and untraced answers differ"
    # Telemetry times count from the collector's creation, which is the
    # helper's first action: about (wall - process_s) after the spawn
    sub_s = descent_self = 0.0
    tel = telemetry_spans(stats["spans"], t + wall - stats["process_s"], sid, tracer)
    selft = self_times(tel)
    for s in tel:
        if s["name"] == "scg.subgradient":
            sub_s += s["end"] - s["start"]
        elif s["name"] == "scg.descent":
            descent_self += selft[s["id"]]
    return {"replay": replay, "stats": stats, "answer": answer,
            "plain_solve_s": runs[False][1]["solve_s"],
            "subgradient_s": sub_s, "descent_self_s": descent_self}, None


def telemetry_spans(raw, offset, parent, tracer):
    """Telemetry's [name, start, stop, depth] records as spans with parents
    (a span's parent is the innermost open span one level up)."""
    out, stack = [], []
    for name, start, stop, depth in sorted(raw, key=lambda r: (r[1], r[3])):
        while stack and stack[-1][1] >= depth:
            stack.pop()
        if name.startswith("component-"):
            name = "component"
        sid = tracer.add(tracer.new_id(), stack[-1][0] if stack else parent,
                         "scg." + name, offset + start, offset + stop)
        out.append(tracer.spans[-1])
        stack.append((sid, depth))
    return out


# the replay spans that are pipeline layers (the kernel repeats after
# them are extra calls the solve does not make)
LAYERS = ("instance.parse", "from_logic.build", "implicit", "reduce2.cyclic_core",
          "partition.split", "greedy.solve_best", "dual_ascent.run", "subgradient.run")


def span_sum(replay, name):
    return sum(s["end"] - s["start"] for s in replay["spans"] if s["name"] == name)


def layer_metrics(records):
    replays = [r["replay"] for r in records]
    stats = [r["stats"] for r in records]
    n = max(1, len(records))

    def total(name):
        return sum(span_sum(rep, name) for rep in replays)

    def count(name, reps=replays):
        return sum(rep["counts"].get(name, 0.0) for rep in reps)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    plas = [r["replay"] for r in records if r["inp"]["kind"].startswith("pla")]
    steps = count("subgradient.steps")
    return {
        "instance.parse_s": total("instance.parse") / n,
        "instance.parse_mb_per_s": per(count("input.bytes"), total("instance.parse"), 1e-6),
        "from_logic.build_s": per(sum(span_sum(r, "from_logic.build") for r in plas), len(plas)),
        "from_logic.primes": per(count("from_logic.primes", plas), len(plas)),
        "implicit.reduce_s": total("implicit") / n,
        "implicit.rows_removed_frac": 1.0 - per(count("implicit.rows_left"),
                                                count("input.rows")),
        "zdd.peak_nodes": max((rep["counts"]["zdd.peak_nodes"] for rep in replays), default=0),
        "zdd.live_nodes_after": max((s["zdd_live_nodes_after"] for s in stats), default=0),
        "reduce2.cyclic_core_s": total("reduce2.cyclic_core") / n,
        "reduce2.core_nnz": int(count("reduce2.core_nnz")),
        "partition.components": int(count("partition.components")),
        "greedy.solve_best_s": total("greedy.solve_best") / n,
        "dual_ascent.run_s": total("dual_ascent.run") / n,
        "subgradient.steps": int(steps),
        "subgradient.step_us": per(total("subgradient.run"), steps, 1e6),
        "subgradient.minor_words_per_step": per(count("subgradient.minor_words"), steps),
        "relax.evaluate_us": per(total("relax.evaluate"), count("relax.calls"), 1e6),
        "relax.nnz_per_us": per(count("relax.nnz"), total("relax.evaluate"), 1e-6),
        "relax.minor_words_per_call": per(count("relax.minor_words"), count("relax.calls")),
        "lag_greedy.run_us": per(total("lag_greedy.run"), count("lag_greedy.calls"), 1e6),
        "lag_greedy.minor_words_per_call": per(count("lag_greedy.minor_words"),
                                               count("lag_greedy.calls")),
        "penalties.dual_us": per(total("penalties.dual"), count("penalties.calls"), 1e6),
        "scg.solve_s": sum(s["solve_s"] for s in stats) / n,
        "scg.subgradient_s": sum(r["subgradient_s"] for r in records) / n,
        "scg.descent_self_s": sum(r["descent_self_s"] for r in records) / n,
        "scg.fixes": sum(s["stats"]["fixes"] for s in stats),
        "scg.iterations": sum(s["stats"]["iterations"] for s in stats),
        "gc.minor_words": sum(s["gc_minor_words"] for s in stats) / n,
        "gc.major_collections": sum(s["gc_major_collections"] for s in stats) / n,
        "gc.top_heap_mb": max((s["gc_top_heap_words"] * 8 / 2**20 for s in stats), default=0.0),
        "telemetry.overhead_pct": 100.0 * (per(sum(s["solve_s"] for s in stats),
                                               sum(r["plain_solve_s"] for r in records)) - 1.0),
        "telemetry.trace_lines": sum(s["trace_lines"] for s in stats),
    }


def report_families(records):
    """Per input family: replay seconds per pipeline layer, the largest
    layer, and the share of Scg.solve spent in subgradient spans."""
    fams = {}
    for r in records:
        row = fams.setdefault(r["inp"]["family"], {"solve": 0.0, "sub": 0.0, "layers": {}})
        row["solve"] += r["stats"]["solve_s"]
        row["sub"] += r["subgradient_s"]
        for name in LAYERS:
            row["layers"][name] = row["layers"].get(name, 0.0) + span_sum(r["replay"], name)
    log("perfbench: replay seconds per layer, by input family")
    for fam, row in fams.items():
        layers = row["layers"]
        top = max(layers, key=layers.get)
        share = 100 * row["sub"] / row["solve"] if row["solve"] else 0.0
        cells = " ".join(f"{k}={v:.4f}" for k, v in layers.items() if v)
        log(f"  {fam:10s} largest={top} subgradient/solve={share:.1f}%  {cells}")


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one input per family (smoke test size)")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    t0 = time.perf_counter()
    try:
        build_id = build()
        if args.trace:
            result = traced_run(build_id, args.workload, args.seed, args.tiny)
        else:
            result = timed_run(build_id, args.workload, args.seed, args.seconds, args.tiny)
    except Abort as e:
        log(f"perfbench: {e}")
        return 2
    log(f"perfbench: run took {time.perf_counter() - t0:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
