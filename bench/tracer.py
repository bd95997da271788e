"""Spans and call counts at the hypercone layer boundaries, for traced runs.

Hooks are installed by object identity: the function object named by each
hook is looked up in its defining module, and every ``hypercone.*`` module
attribute bound to that same object (``resolvent.gauss_series``,
``cli.enumerate_resonances``, the package re-exports, ...) is replaced by
one wrapper.  A hook whose name no longer exists, or that is never called,
is reported as absent instead of failing the run, so refactors that delete
or fold a function stay measurable without editing the benchmark.

Spans live in flat in-memory arrays (name, op id, parent, start, end) and
are written out only after the run.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# (module, function, kind): "span" hooks record a span per call; "count"
# hooks only count calls, for functions called too often for a span each.
HOOKS = (
    ("cli", "main", "span"),
    ("crosssec", "circle_spectrum", "span"),
    ("crosssec", "sphere_spectrum", "span"),
    ("crosssec", "load_spectrum", "span"),
    ("crosssec", "is_generic", "span"),
    ("resonances", "enumerate_resonances", "span"),
    ("resonances", "weyl_count", "span"),
    ("resonances", "classify_pole", "span"),
    ("quadrature", "integrate", "span"),
    ("specfun", "gauss_series", "span"),
    ("specfun", "hyp2f1", "span"),
    ("specfun", "hyp2f1_regularized", "span"),
    ("specfun", "ln_gamma", "count"),
    ("specfun", "gamma", "count"),
    ("resolvent", "u1", "span"),
    ("resolvent", "u2", "span"),
    ("resolvent", "apply_resolvent", "span"),
    ("resolvent", "residual_check", "span"),
    ("resolvent", "green_pairing", "span"),
    ("resolvent", "residue_probe", "span"),
)

_SPECTRUM_HOOKS = ("crosssec.circle_spectrum", "crosssec.sphere_spectrum",
                   "crosssec.load_spectrum")


class _CountedIntegrand:
    """Integrand wrapper that counts evaluations for quadrature hooks."""

    def __init__(self, fn, tracer):
        self.fn = fn
        self.tracer = tracer

    def __call__(self, x):
        self.tracer.integrand_evals += 1
        return self.fn(x)


class Tracer:
    def __init__(self, package: str = "hypercone"):
        self.package = package
        self.names: list[str] = []
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.calls = Counter()
        self.errors: dict[str, Counter] = {}
        self.integrand_evals = 0
        self.positions_out = 0
        self.contributors_out = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.names, self.absent = [], []
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package
                   or name.startswith(self.package + ".")]
        for mod_name, attr, kind in HOOKS:
            key = f"{mod_name}.{attr}"
            try:
                home = importlib.import_module(f"{self.package}.{mod_name}")
            except ImportError:
                self.absent.append(key)
                continue
            orig = getattr(home, attr, None)
            if not callable(orig):
                self.absent.append(key)
                continue
            self.names.append(key)
            wrapper = (self._span_wrapper(key, len(self.names) - 1, orig)
                       if kind == "span" else self._count_wrapper(key, orig))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._installed):
            setattr(mod, name, orig)
        self._installed.clear()

    def _count_wrapper(self, key, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, key, idx, fn):
        tracer = self
        clock = time.perf_counter
        integrate = key == "quadrature.integrate"
        enumerate_ = key == "resonances.enumerate_resonances"

        def spanned(*args, **kwargs):
            tracer.calls[key] += 1
            if integrate and args and not isinstance(args[0], _CountedIntegrand):
                args = (_CountedIntegrand(args[0], tracer),) + args[1:]
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_op.append(tracer.op_id)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_end.append(0.0)
            tracer.stack.append(sid)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.span_end[sid] = clock()
                tracer.stack.pop()
                tracer.errors.setdefault(key, Counter())[type(exc).__name__] += 1
                raise
            tracer.span_end[sid] = clock()
            tracer.stack.pop()
            if enumerate_:
                tracer._observe_resonances(result)
            return result
        return spanned

    def _observe_resonances(self, rset) -> None:
        rows = getattr(rset, "resonances", None)
        if rows is None:
            return
        self.positions_out += len(rows)
        self.contributors_out += sum(len(getattr(r, "contributors", ()))
                                     for r in rows)

    # -- reduction -----------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per hook: (self time, busy time) summed over recorded spans.

        Busy time counts only outermost spans of a name, so a function that
        re-enters itself is not counted twice."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(self.names, 0.0)
        busy_s = dict.fromkeys(self.names, 0.0)
        name = self.span_name
        for i in range(n):
            key = self.names[name[i]]
            self_s[key] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and name[p] != name[i]:
                p = parent[p]
            if p < 0:
                busy_s[key] += dur[i]
        return self_s, busy_s

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, by name."""
        self_s, busy_s = self.span_totals()
        calls = self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "resonances.enumerate_resonances.calls":
                calls["resonances.enumerate_resonances"],
            "resonances.enumerate_resonances.self_s":
                self_s.get("resonances.enumerate_resonances", 0.0),
            "resonances.weyl_count.self_s":
                self_s.get("resonances.weyl_count", 0.0),
            "resonances.pairs_per_position":
                ratio(self.contributors_out, self.positions_out),
            "resonances.positions_out": self.positions_out,
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "crosssec.spectrum.self_s":
                sum(self_s.get(k, 0.0) for k in _SPECTRUM_HOOKS),
            "crosssec.is_generic.calls": calls["crosssec.is_generic"],
            "quadrature.integrate.calls": calls["quadrature.integrate"],
            "quadrature.integrate.self_s":
                self_s.get("quadrature.integrate", 0.0),
            "quadrature.integrand_evals": self.integrand_evals,
            "quadrature.evals_per_call":
                ratio(self.integrand_evals, calls["quadrature.integrate"]),
            "quadrature.failures":
                sum(self.errors.get("quadrature.integrate", Counter()).values()),
            "specfun.gauss_series.calls": calls["specfun.gauss_series"],
            "specfun.gauss_series.self_s":
                self_s.get("specfun.gauss_series", 0.0),
            "specfun.hyp2f1.calls": calls["specfun.hyp2f1"],
            "specfun.hyp2f1.self_s": self_s.get("specfun.hyp2f1", 0.0),
            "specfun.ln_gamma.calls": calls["specfun.ln_gamma"],
            "specfun.gamma.calls": calls["specfun.gamma"],
            "resolvent.u1.calls": calls["resolvent.u1"],
            "resolvent.u2.calls": calls["resolvent.u2"],
            "resolvent.u2.self_s": self_s.get("resolvent.u2", 0.0),
            "resonances.classify_pole.calls": calls["resonances.classify_pole"],
        }
        for entry in ("apply_resolvent", "residual_check", "green_pairing",
                      "residue_probe"):
            key = f"resolvent.{entry}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.busy_s"] = busy_s.get(key, 0.0)
        probes = calls["resolvent.residue_probe"]
        refused = sum(self.errors.get("resolvent.residue_probe",
                                      Counter()).values())
        out["resolvent.probe_conclusive_share"] = ratio(probes - refused,
                                                        probes)
        return out

    def hooks_absent(self) -> list[str]:
        """Hooks missing from the package or never called in this pass."""
        never = [k for k in self.names if self.calls[k] == 0]
        return sorted(self.absent + never)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\top\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
