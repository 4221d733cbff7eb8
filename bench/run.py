"""compenum benchmark: one workload per process, one caller, closed loop.

    python3 bench/run.py --workload exact-count --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each operation is one in-process call of compenum.cli.main(argv) with
standard output captured.  It succeeds when it returns 0 and its output
passes the workload's checker.  A run builds the seeded operation list
(one round) and the reference answers, measures set-up, warms up, then
repeats whole rounds until --seconds have passed, and at least until
100 operations have been timed.  The first round's outputs are checked
in full; later rounds must print exactly the same.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
and traced rounds and reports per-layer self times and counts (see
layers.py) and the tracing overhead.  Every time is scaled to a nominal
host speed (see REFERENCE_S).  The last line of standard output
is the result as one JSON object; a fuller record, and with --trace 1
every span, go to .bench-out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
MIN_TIMED_OPS = 100
SETUP_REPEATS = 9
# Speed correction: the host switches, every few seconds, between a fast
# and a slow state about 1.5 times slower, because other tenants share its
# cores.  Before every operation the runner times reference_work(); each
# latency is scaled by REFERENCE_S over the median reference time of the
# 2 * REFERENCE_WINDOW + 1 operations around it, giving seconds of a host
# that runs the reference work in REFERENCE_S.
REFERENCE_S = 0.003
REFERENCE_WINDOW = 2
_BIG = 3**2000

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TIMED_LAYERS = (
    "cli.self", "partset.parse_setspec", "genfun.composition_gf", "polyring.reduce",
    "polyring.series", "recurrence.from_gf", "recurrence.from_dict", "recurrence.terms",
    "recurrence.nth", "genfun.count", "recurrence.nth_mod", "closedform.find_roots",
    "closedform.partial_fractions", "closedform.dominance_report", "closedform.eval_closed",
    "bivariate.table",
)
# per-operation counts, each taken over the operations of one subcommand
# (None: over the operations that record the count at all)
OP_COUNTS = {
    "recurrence.terms_len": "count",
    "closedform.find_roots_calls": "closed-form",
    "bivariate.cells": None,
}
ROUND_COUNTS = ("closedform.repeated_root_refusals",)
PROBE_ROUNDS = 3

# a fresh interpreter imports the CLI and runs the warm-up operations,
# then times the reference work for the speed correction
SETUP_CHILD = """
import contextlib, io, json, sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
from compenum import cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(argv)) != 0:
            raise SystemExit(f"warm-up operation failed: {argv}")
setup = perf_counter() - start
sys.path.insert(0, sys.argv[3])
from run import reference_work
start = perf_counter()
reference_work()
print(setup, perf_counter() - start)
"""


def _load_program():
    """Import compenum from this checkout's src/, or exit 1."""
    if not (SRC / "compenum" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'compenum'} not found; run from a compenum checkout")
    sys.path.insert(0, str(SRC))
    import compenum.cli

    if Path(compenum.cli.__file__).resolve().parent != (SRC / "compenum").resolve():
        sys.exit(f"error: imported compenum from {compenum.cli.__file__}, not {SRC}")


def reference_work():
    """Fixed pure-Python work, about 3 ms: big-integer products, then a
    small-integer loop.  It touches no compenum code."""
    acc = 0
    for i in range(1, 3500):
        acc += (_BIG * i) >> 3100
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
    return acc


def _call(cli, argv):
    """(exit code, stdout, stderr, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not a failed run
        code = "crash"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


class Runner:
    """Runs the operation list, checks each operation's first output in
    full and later outputs against its digest, and tallies failures."""

    def __init__(self, cli, workload, ops, refs, workdir):
        self.cli = cli
        self.workload = workload
        self.ops = ops
        self.refs = refs
        self.workdir = workdir
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.errors = []

    def _argv(self, op):
        name = op.recurrence_file
        return op.argv if name is None else tuple(
            str(self.workdir / a) if a == name else a for a in op.argv
        )

    def round(self, tracer=None):
        """One pass over the list: (seconds, succeeded, reference seconds)
        per operation and, when traced, (layer ms, counts) per operation."""
        times, layers = [], []
        for i, op in enumerate(self.ops):
            start = perf_counter()
            reference_work()
            reference = perf_counter() - start
            if tracer is not None:
                tracer.begin(i)
            code, out, err, seconds = _call(self.cli, self._argv(op))
            if tracer is not None:
                layers.append(tracer.end())
            self.attempted += 1
            times.append((seconds, code == 0, reference))
            if code != 0:
                self.failed += 1
                last = err.strip().splitlines()[-1:] or [""]
                self.failures[" ".join(op.argv)] = f"exit {code}: {last[0]}"
            else:
                self._verify(i, op, out)
        return times, layers

    def _verify(self, i, op, out):
        digest = hashlib.sha256(out.encode()).digest()
        if i in self.digests:
            if digest != self.digests[i]:
                self.errors.append(f"{' '.join(op.argv)}: output changed between rounds")
            return
        self.digests[i] = digest
        try:
            problem = self.workload.check(op, out, self.refs)
        except Exception as exc:  # output the checker cannot parse
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem:
            self.errors.append(f"{' '.join(op.argv)}: {problem}")


def measure_setup(workload):
    """Median of SETUP_REPEATS fresh interpreters importing the CLI and
    running the warm-up operations, timed inside each interpreter and
    speed-corrected by the reference work it times next."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(workload.warmup),
             str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up interpreter failed: {proc.stderr.strip()}")
        setup, reference = map(float, proc.stdout.split()[-2:])
        samples.append(setup * REFERENCE_S / reference)
    return statistics.median(samples)


def _warm_up(runner):
    for argv in runner.workload.warmup:
        code, _, err, _ = _call(runner.cli, argv)
        if code != 0:
            sys.exit(f"error: warm-up {' '.join(argv)} failed: {err.strip()}")


def _with_factors(calls):
    """(seconds, succeeded, factor) per call, factor as at REFERENCE_S."""
    refs = [r for _, _, r in calls]
    w = REFERENCE_WINDOW
    return [
        (t, good, REFERENCE_S / statistics.median(refs[max(0, j - w) : j + w + 1]))
        for j, (t, good, _) in enumerate(calls)
    ]


def _timing(calls):
    """ops_per_s, p50 and p90 from (seconds, succeeded) pairs; failed
    calls count in the time, not in the latencies."""
    ok = [t for t, good in calls if good]
    return {
        "ops_per_s": len(ok) / sum(t for t, _ in calls),
        "latency_p50_ms": statistics.median(ok) * 1000,
        "latency_p90_ms": statistics.quantiles(ok, n=10, method="inclusive")[8] * 1000,
    }


def end_to_end_metrics(runner, seconds):
    setup = measure_setup(runner.workload)
    _warm_up(runner)
    min_rounds = -(-MIN_TIMED_OPS // len(runner.ops))
    calls, rounds = [], 0
    start = perf_counter()
    while rounds < min_rounds or perf_counter() - start < seconds:
        calls += runner.round()[0]
        rounds += 1
    values = dict(
        _timing([(t * f, good) for t, good, f in _with_factors(calls)]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        setup_s=setup,
    )
    return values, {
        "rounds": rounds,
        "timed_ops": sum(good for _, good, _ in calls),
        "uncorrected": _timing([(t, good) for t, good, _ in calls]),
        "reference_ms": statistics.median(r for _, _, r in calls) * 1000,
        "calls": [{"seconds": t, "ok": good, "reference_s": r} for t, good, r in calls],
    }


def _median_or(values, empty):
    return statistics.median(values) if values else empty


def _per_op_layers(kinds, layer_rounds):
    """For every per-layer metric, the list of per-operation values: an
    operation's median over the traced rounds, taken over the operations
    that enter the layer (counts: over the operations of one subcommand).
    kinds[i] is operation i's subcommand, layer_rounds[r][i] its (layer
    ms, counts) in traced round r."""
    ops = range(len(kinds))
    values = {}
    for layer in TIMED_LAYERS:
        seen = ([r[i][0][layer] for r in layer_rounds if layer in r[i][0]] for i in ops)
        values[f"{layer}_ms"] = [statistics.median(s) for s in seen if s]
    for counter, kind in OP_COUNTS.items():
        per_op = []
        for i in ops:
            seen = [r[i][1].get(counter, 0) for r in layer_rounds]
            if kinds[i] == kind or (kind is None and any(seen)):
                per_op.append(statistics.median(seen))
        values[counter] = per_op
    return values


def _traced_calls(runner, tracer, modules, argvs, key):
    """One traced pass over `argvs`: (seconds, succeeded, reference) and
    (layer ms, counts) per call."""
    times, layers = [], []
    tracer.install(modules)
    try:
        for j, argv in enumerate(argvs):
            start = perf_counter()
            reference_work()
            reference = perf_counter() - start
            tracer.begin(f"{key}{j}")
            code, _, err, seconds = _call(runner.cli, argv)
            layers.append(tracer.end())
            if code != 0:
                sys.exit(f"error: traced {' '.join(argv)} failed: {err.strip()}")
            times.append((seconds, True, reference))
    finally:
        tracer.uninstall()
    return times, layers


def per_layer_metrics(runner, seconds, modules, probes, span_path):
    """Alternate plain and traced rounds until `seconds` have passed, then
    trace PROBE_ROUNDS passes over `probes`, the other workloads' warm-up
    operations.  A layer the workload never enters takes its value from
    the probes, so every figure is a measurement; see README.md."""
    from layers import Tracer

    tracer = Tracer()
    _warm_up(runner)
    plain, traced, layer_rounds = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(_with_factors(runner.round()[0]))
        tracer.install(modules)
        try:
            times, layers = runner.round(tracer)
        finally:
            tracer.uninstall()
        traced.append(_with_factors(times))
        layer_rounds.append(_scaled(layers, traced[-1]))
    probe_rounds = []
    for _ in range(PROBE_ROUNDS):
        times, layers = _traced_calls(runner, tracer, modules, probes, "probe-")
        probe_rounds.append(_scaled(layers, _with_factors(times)))

    own = _per_op_layers([op.kind for op in runner.ops], layer_rounds)
    fallback = _per_op_layers([argv[0] for argv in probes], probe_rounds)
    values = {name: _median_or(own[name] or fallback[name], 0) for name in own}
    for counter in ROUND_COUNTS:
        values[counter] = statistics.median(
            sum(counts.get(counter, 0) for _, counts in r) for r in layer_rounds
        )
    overhead = []
    for i in range(len(runner.ops)):
        a = [r[i][0] * r[i][2] for r in plain if r[i][1]]
        b = [r[i][0] * r[i][2] for r in traced if r[i][1]]
        if a and b:
            overhead.append((statistics.median(b) - statistics.median(a)) * 1000)
    values["trace.overhead_ms"] = _median_or(overhead, 0.0)
    tracer.write(span_path)
    return values, {
        "rounds": len(plain) + len(traced),
        "spans": len(tracer.spans),
        "from_probes": sorted(name for name in own if not own[name] and fallback[name]),
    }


def _scaled(layers, calls):
    """Layer times of each call scaled by that call's speed factor."""
    return [
        ({k: v * f for k, v in ms.items()}, counts)
        for (ms, counts), (_, _, f) in zip(layers, calls)
    ]


def _environment():
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


def _write_recurrence(cli, spec, path):
    code, text, err, _ = _call(cli, ("recurrence", spec))
    if code != 0:
        sys.exit(f"error: recurrence {spec} failed: {err.strip()}")
    path.write_text(text, encoding="utf-8")


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the result object and a fuller record."""
    _load_program()
    from compenum import bivariate, cli, closedform, genfun, oracle, partset, polyring, recurrence

    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.make_ops(seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    try:
        for op in ops:
            if op.recurrence_file is not None:
                _write_recurrence(cli, op.parts.spec, workdir / op.recurrence_file)
        refs = workload.make_refs(ops)
        runner = Runner(cli, workload, ops, refs, workdir)
        if trace:
            modules = [partset, polyring, genfun, recurrence, closedform, bivariate, oracle, cli]
            probes = [a for w in workloads.WORKLOADS.values() if w is not workload for a in w.warmup]
            # no warm-up reads a recurrence file, so one probe does
            _write_recurrence(cli, "not:mod:7:0", workdir / "probe.json")
            probes.append(("nth", "1000000000", "--mod", "1000000007",
                           "--recurrence-file", str(workdir / "probe.json")))
            values, info = per_layer_metrics(
                runner, seconds, modules, probes, OUT / f"{stem}.spans.jsonl"
            )
        else:
            values, info = end_to_end_metrics(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()},
    }
    record = dict(
        result, workload=name, seed=seed, seconds=seconds, trace=trace,
        environment=_environment(), operations_per_round=len(ops), **info,
        failures=runner.failures, errors=runner.errors,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result, record


def _unit(metric):
    if metric in END_TO_END:
        return END_TO_END[metric]
    return "ms" if metric.endswith("_ms") else "count"


def _report(record):
    env = record["environment"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"python {env['python']}  mpmath {env['mpmath']} ({env['mpmath_backend']} backend)  "
        f"nproc {env['nproc']}"
    )
    print(
        f"operations: {record['attempted']} attempted, {record['failed']} failed, "
        f"{record['operations_per_round']} per round, {record['rounds']} rounds"
    )
    for argv, why in record["failures"].items():
        print(f"  failed: {argv}  ({why})")
    for error in record["errors"][:20]:
        print(f"  WRONG: {error}")
    if record.get("from_probes"):
        print("  from the other workloads' warm-up operations: " + ", ".join(record["from_probes"]))
    for metric, m in record["metrics"].items():
        print(f"  {metric:36s} {m['value']:14.6f} {m['unit']}")
    if "uncorrected" in record:
        print(f"  before speed correction (reference work {record['reference_ms']:.4f} ms, "
              f"nominal {REFERENCE_S * 1000:g} ms):")
        for metric, value in record["uncorrected"].items():
            print(f"  {metric:36s} {value:14.6f} {END_TO_END[metric]}")


def run_all(seed, seconds, trace):
    """Every workload, each in its own process."""
    import workloads

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} failed: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, m in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = m
    return result


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        _report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
