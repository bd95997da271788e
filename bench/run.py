#!/usr/bin/env python3
"""Layered, reference-checked benchmark for hypercone.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N --seconds S      # every workload, one process each
    python3 bench/run.py --write-spec              # (re)write BENCHMARK.json

One client in a closed loop: a single process, no threads, each operation
issued after the previous one returns.  The library is imported from
``src/`` of this checkout.  Operations run in-process; interpreter start,
import and input generation are timed separately as ``setup_s`` (the median
of several fresh processes).  Every operation is checked against an
independent reference (``reference.py``) outside its timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the first operations of the seed and
reports the per-layer metrics of one pass (median over traced passes),
with the tracing overhead against the untraced passes.

The last line of stdout is the result object; the line before it is a
``detail`` object with the environment, the input digest, failures by
class, the tail percentile and its sample count, and the frontier.  Both
are also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 11
CALIBRATION_NOMINAL_S = 0.004
# The tail is the highest percentile with at least ten samples beyond it at
# the benchmark's sizes (every workload runs 100 or more operations).  It is
# fixed rather than chosen per run, so a faster program is not read at a
# higher percentile than its parent.
TAIL_PERCENTILE = 90.0

# Bounds are at least three times the spread (quartile distance over the
# median) of ten seeded runs on a shared two-core host.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "worst_digits", "unit": "digits", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

PER_LAYER = [
    ("resonances.enumerate_resonances.calls", "count", "higher"),
    ("resonances.enumerate_resonances.self_s", "s", "lower"),
    ("resonances.weyl_count.self_s", "s", "lower"),
    ("resonances.pairs_per_position", "ratio", "higher"),
    ("resonances.positions_out", "count", "higher"),
    ("resonances.classify_pole.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("crosssec.spectrum.self_s", "s", "lower"),
    ("crosssec.is_generic.calls", "count", "lower"),
    ("quadrature.integrate.calls", "count", "lower"),
    ("quadrature.integrate.self_s", "s", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.evals_per_call", "ratio", "lower"),
    ("quadrature.failures", "count", "lower"),
    ("specfun.gauss_series.calls", "count", "lower"),
    ("specfun.gauss_series.self_s", "s", "lower"),
    ("specfun.hyp2f1.calls", "count", "lower"),
    ("specfun.hyp2f1.self_s", "s", "lower"),
    ("specfun.ln_gamma.calls", "count", "lower"),
    ("specfun.gamma.calls", "count", "lower"),
    ("resolvent.u1.calls", "count", "lower"),
    ("resolvent.u2.calls", "count", "lower"),
    ("resolvent.u2.self_s", "s", "lower"),
    ("resolvent.apply_resolvent.calls", "count", "lower"),
    ("resolvent.apply_resolvent.busy_s", "s", "lower"),
    ("resolvent.residual_check.calls", "count", "lower"),
    ("resolvent.residual_check.busy_s", "s", "lower"),
    ("resolvent.green_pairing.calls", "count", "lower"),
    ("resolvent.green_pairing.busy_s", "s", "lower"),
    ("resolvent.residue_probe.calls", "count", "lower"),
    ("resolvent.residue_probe.busy_s", "s", "lower"),
    ("resolvent.probe_conclusive_share", "ratio", "higher"),
    ("frontier.fail_share", "ratio", "lower"),
    ("frontier.worst_digits", "digits", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
UNITS["fail_share"] = "ratio"


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 20,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in wl.WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# -- environment --------------------------------------------------------------

def _loadavg() -> list[str]:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = git / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": _git_revision(),
            "mpmath": reference.mp_version(),
            "loadavg_start": _loadavg()}


# -- library and inputs -------------------------------------------------------

def import_library() -> types.SimpleNamespace:
    src = ROOT / "src"
    if not (src / "hypercone" / "__init__.py").is_file():
        raise SystemExit(f"error: no hypercone sources under {src}")
    sys.path.insert(0, str(src))
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"hypercone.{m}")
        for m in ("cli", "crosssec", "errors", "resonances", "resolvent",
                  "specfun")})


def make_context(args, hc, workload) -> tuple[wl.Context, list[dict]]:
    """Generate the workload's inputs; returns the context and the mpmath
    requests its timed operations are checked against."""
    workdir = HERE / "work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(hc, args.seed, workdir, args.small, args.corrupt_reference)
    requests = workload.prepare(ctx) if workload.prepare else []
    return ctx, requests


def first_ops(ctx, workload, count: int) -> list:
    return [workload.make_op(ctx, i) for i in range(count)]


def mp_references(requests: list[dict]) -> list:
    if not requests:
        return []
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          input=json.dumps(requests), capture_output=True,
                          text=True, timeout=150, check=True)
    return json.loads(proc.stdout)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times (calibrated, raw) of fresh processes that start, import
    the library and generate this seed's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    times, raw = [], []
    before = calibration()
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, wait() polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = calibration()
        times.append(raw[-1] * 2 * CALIBRATION_NOMINAL_S / (before + after))
        before = after
    return times, raw


# -- timing -------------------------------------------------------------------

def calibration() -> float:
    """Wall time of a fixed piece of interpreter work of the kinds the
    library does: Fraction and big-integer arithmetic, complex math, dict
    stores and a bytecode loop.

    A shared two-core host drifts by +-20% in speed over seconds.  Every
    reported time is scaled by CALIBRATION_NOMINAL_S over the calibration
    time measured around it, which cancels that drift; the unscaled values
    are kept in the detail."""
    t0 = time.perf_counter()
    acc, z, table = Fraction(0), 0j, {}
    for k in range(1, 400):
        acc += Fraction(k, k + 1)
        z = z * (0.5 + 0.1j) + cmath.exp(1j * k)
        table[k] = (acc.numerator % 97, z)
    x = 0
    for i in range(30000):
        x += i
    return time.perf_counter() - t0


class Tally:
    """Outcomes of the operations run so far."""

    def __init__(self):
        self.latencies: list[float] = []      # calibrated
        self.raw_latencies: list[float] = []
        self.calibrations: list[float] = [calibration()]
        self.attempted = 0
        self.failed = 0
        self.worst_digits = wl.DIGITS_CAP
        self.failures = {"typed": Counter(), "untyped": Counter(),
                         "tolerance": Counter(), "exit": Counter()}
        self.counters = Counter()
        self.failed_examples: list[dict] = []

    def run(self, op) -> float:
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # classified by the check, never fatal
            raw = exc
        elapsed = time.perf_counter() - t0
        out = op.check(raw)
        self.calibrations.append(calibration())
        scaled = (elapsed * 2 * CALIBRATION_NOMINAL_S
                  / (self.calibrations[-2] + self.calibrations[-1]))
        self.attempted += 1
        self.latencies.append(scaled)
        self.raw_latencies.append(elapsed)
        self.counters.update(out.counters)
        if out.passed:
            self.worst_digits = min(self.worst_digits, out.digits)
        else:
            self.failed += 1
            if len(self.failed_examples) < 5:
                self.failed_examples.append(
                    {"op": op.desc, "failures": out.failures})
            for label in set(out.failures):  # classes per failed op
                kind, _, name = label.partition(":")
                self.failures[kind][name] += 1
        return scaled


def tail(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE value and the samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(args, ctx, workload) -> tuple[Tally, dict, dict]:
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        tally.run(workload.make_op(ctx, i))
        i += 1
        if time.perf_counter() >= deadline:
            break
    lat = tally.latencies
    tail_value, beyond = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "worst_digits": tally.worst_digits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = tally.raw_latencies
    extra = {"tail_percentile": TAIL_PERCENTILE, "tail_samples_beyond": beyond,
             "samples": len(lat),
             "uncalibrated": {"ops_per_s": len(raw) / sum(raw),
                              "op_p50_ms": statistics.median(raw) * 1e3,
                              "op_tail_ms": tail(raw)[0] * 1e3}}
    return tally, metrics, extra


def traced_run(args, ctx, workload, pass_size: int) -> tuple[Tally, dict, dict]:
    tally = Tally()
    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not (plain and time.perf_counter() >= deadline):
        plain.append(sum(tally.run(op) for op in first_ops(ctx, workload,
                                                           pass_size)))
        tracer.reset()
        before = tally.counters["cli.stdout_bytes"]
        tracer.install()
        try:
            busy = 0.0
            for i, op in enumerate(first_ops(ctx, workload, pass_size)):
                tracer.op_id = i
                busy += tally.run(op)
        finally:
            tracer.uninstall()
        traced.append(busy)
        # span times get the pass's calibration scale, like latencies
        scale = busy / sum(tally.raw_latencies[-pass_size:])
        layer = {name: value * scale if name.endswith("_s") else value
                 for name, value in tracer.layer_metrics().items()}
        layer["cli.stdout_bytes"] = tally.counters["cli.stdout_bytes"] - before
        layers.append(layer)
    metrics = {name: statistics.median(p[name] for p in layers)
               for name in layers[0]}
    metrics["trace.overhead_share"] = (statistics.median(traced)
                                       / statistics.median(plain) - 1.0)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    # one file per workload (the latest traced pass), to bound disk use
    tracer.write_spans(results / f"{args.workload}.spans.tsv")
    extra = {"passes": len(traced), "pass_ops": pass_size,
             "hooks_absent": tracer.hooks_absent(),
             "hook_errors": {k: dict(v) for k, v in tracer.errors.items()}}
    return tally, metrics, extra


# -- entry points -------------------------------------------------------------

def run_workload(args) -> int:
    env = environment()
    hc = import_library()
    workload = wl.WORKLOADS[args.workload]
    pass_size = workload.small_pass if args.small else workload.pass_size
    clock = [time.perf_counter()]

    def phase() -> float:
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    setup_times, setup_raw = measure_setup(args)
    phases = {"setup_runs": phase()}
    ctx, requests = make_context(args, hc, workload)
    digest = hashlib.sha256(json.dumps(
        [op.desc for op in first_ops(ctx, workload, pass_size)],
        sort_keys=True, default=str).encode()).hexdigest()
    front_reqs, evaluate = (workload.frontier(ctx) if workload.frontier
                            else ([], None))
    refs = mp_references(requests + front_reqs)
    ctx.refs = refs[:len(requests)]
    phases["references"] = phase()
    front = evaluate(refs[len(requests):]) if evaluate else None
    phases["frontier"] = phase()
    Tally().run(workload.make_op(ctx, 0))  # warm-up, not counted

    if args.trace:
        tally, metrics, extra = traced_run(args, ctx, workload, pass_size)
        metrics["frontier.fail_share"] = front["fail_share"] if front else 0.0
        metrics["frontier.worst_digits"] = (front["worst_digits"]
                                            if front else 0.0)
        wanted = [name for name, _, _ in PER_LAYER]
    else:
        tally, metrics, extra = timed_run(args, ctx, workload)
        metrics["setup_s"] = statistics.median(setup_times)
        wanted = [m["name"] for m in END_TO_END]

    phases["measure"] = phase()
    fail_share = tally.failed / tally.attempted
    env["loadavg_end"] = _loadavg()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "inputs_digest": digest,
        "environment": env, "phases_s": phases,
        "setup_runs_s": setup_times, "setup_runs_uncalibrated_s": setup_raw,
        "calibration_median_s": statistics.median(tally.calibrations),
        "fail_share": fail_share,
        "failures": {k: dict(v) for k, v in tally.failures.items()},
        "failed_examples": tally.failed_examples,
        "frontier": front if front else "not measured on this workload",
        **extra,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in wanted},
    }
    if not args.trace:
        print(f"fail_share = {fail_share:.6g} ratio")
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {UNITS[name]}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest sizes, for the benchmark's own test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb one reference value (must be caught)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        hc = import_library()
        w = wl.WORKLOADS[args.workload]
        ctx, _ = make_context(args, hc, w)
        first_ops(ctx, w, w.small_pass if args.small else w.pass_size)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
