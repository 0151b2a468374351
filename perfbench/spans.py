"""Spans around the layers of whittaker_mb, recorded from outside the package.

``Tracer.install`` wraps every public module-level function of the eight
layer modules and rebinds each module attribute that refers to it
(``uninstall`` puts the originals back), so a
caller that looks the name up at call time (``quadrature.log_gamma_array``
bound by ``from .gammafn import ...``, the lazy imports inside ``cli``)
reaches the wrapper.  Methods, private helpers and numpy calls are not
spans: their time is self time of the public function that calls them.
Spans (name, start, end, parent) are kept in memory and written out at
the end; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "mellin", "quadrature", "gammafn", "bz", "charts", "exact", "roots")
FAMILIES = ("gl", "so_even", "so_odd", "sp")

# Self times reported one by one; every layer also gets layer.<name>.self_s.
SELF_TIMES = (
    "gammafn.log_gamma_array",
    "quadrature.eval_mb",
    "quadrature.contour_base_point",
    "quadrature.eval_cone",
    "bz.bz_map_coords",
    "quadrature.eval_mellin_transform",
    "mellin.bump_gl3",
    "mellin.assemble_mb_integrand",
    "mellin.mellin_of_whittaker",
    "cli.main",
    "bz.bz_oracle",
    "bz.bz_closed_form",
    "exact.lu_gauss_decompose",
    "charts.extract_coordinates",
    "charts.chart_to_matrix",
    "charts.measure_jacobian_logdet",
    "bz.u_matrix_check",
)

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {f"{name}.self_s": "s" for name in SELF_TIMES}
PER_LAYER_UNITS.update(
    {
        "gammafn.log_gamma_array.points": "count",
        "gammafn.log_gamma_array.ns_per_point": "ns",
        "quadrature.eval_mb.evaluations": "count",
        "quadrature.eval_mb.useful_frac": "ratio",
        "quadrature.eval_mb.not_converged": "count",
        "quadrature.contour_base_point.calls": "count",
        "quadrature.eval_cone.evaluations": "count",
        "quadrature.eval_mellin_transform.evaluations": "count",
        "mellin.assemble_mb_integrand.calls": "count",
        "quadrature.est_error_misses": "count",
    }
)
PER_LAYER_UNITS.update({f"bz.oracle_per_closed_form.{f}": "ratio" for f in FAMILIES})
PER_LAYER_UNITS.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER_UNITS.update({"trace.ops": "count", "trace.root_s": "s", "trace.overhead_frac": "ratio"})


def _evaluations(args, result, exc):
    res = result if exc is None else getattr(exc, "result", None)
    return res.evaluations if res is not None else 0


def _points(args, result, exc):
    return int(getattr(args[0], "size", 1))


def _family(args, result, exc):
    return args[0].root_system.family


# What a span records besides its times, by span name.
NOTES = {
    "quadrature.eval_mb": _evaluations,
    "quadrature.eval_cone": _evaluations,
    "quadrature.eval_mellin_transform": _evaluations,
    "quadrature.plan_contour": lambda args, result, exc: result.total_nodes if exc is None else 0,
    "gammafn.log_gamma_array": _points,
    "bz.bz_oracle": _family,
    "bz.bz_closed_form": _family,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = {}
        self.raised = {}
        self._stack = []
        self._bindings = []

    def install(self) -> None:
        """Route every public function of every layer through a span."""
        if not self._bindings:
            self._bindings = self._bind()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back; recorded spans are kept."""
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _bind(self) -> list:
        """(module, attribute, original, wrapper) for every binding to wrap."""
        modules = [importlib.import_module(f"whittaker_mb.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn, NOTES.get(name)))
        bindings = []
        for mod in [importlib.import_module("whittaker_mb")] + modules:
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((mod, attr, value, hit[1]))
        return bindings

    def _wrap(self, name, fn, note):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        notes, raised, stack = self.notes, self.raised, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            exc = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raised[idx] = type(err).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    notes[idx] = note(args, result, exc)

        return traced

    def self_times(self) -> list:
        child = [0.0] * len(self.starts)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def root_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def metrics(self) -> dict:
        """Per-layer metrics over every span recorded so far."""
        selfs = self.self_times()
        by_name = defaultdict(float)
        by_layer = dict.fromkeys(LAYERS, 0.0)
        calls = defaultdict(int)
        noted = defaultdict(float)
        route = defaultdict(lambda: [0.0, 0])  # (name, family) -> [seconds, calls]
        not_converged = 0
        planned = 0
        for idx, name in enumerate(self.names):
            by_name[name] += selfs[idx]
            by_layer[name.split(".", 1)[0]] += selfs[idx]
            calls[name] += 1
            note = self.notes.get(idx)
            if name in ("bz.bz_oracle", "bz.bz_closed_form"):
                acc = route[name, note]
                acc[0] += self.ends[idx] - self.starts[idx]
                acc[1] += 1
            elif note is not None:
                noted[name] += note
            if name == "quadrature.eval_mb" and self.raised.get(idx) == "NotConverged":
                not_converged += 1
            parent = self.parents[idx]
            if name == "quadrature.plan_contour" and parent >= 0 and self.names[parent] == "quadrature.eval_mb":
                planned += note
        out = {f"{name}.self_s": by_name[name] for name in SELF_TIMES}
        points = noted["gammafn.log_gamma_array"]
        evaluations = noted["quadrature.eval_mb"]
        out.update(
            {
                "gammafn.log_gamma_array.points": int(points),
                "gammafn.log_gamma_array.ns_per_point":
                    1e9 * by_name["gammafn.log_gamma_array"] / points if points else 0.0,
                "quadrature.eval_mb.evaluations": int(evaluations),
                "quadrature.eval_mb.useful_frac": planned / evaluations if evaluations else 0.0,
                "quadrature.eval_mb.not_converged": not_converged,
                "quadrature.contour_base_point.calls": calls["quadrature.contour_base_point"],
                "quadrature.eval_cone.evaluations": int(noted["quadrature.eval_cone"]),
                "quadrature.eval_mellin_transform.evaluations":
                    int(noted["quadrature.eval_mellin_transform"]),
                "mellin.assemble_mb_integrand.calls": calls["mellin.assemble_mb_integrand"],
            }
        )
        for family in FAMILIES:
            (t_or, n_or), (t_cf, n_cf) = route["bz.bz_oracle", family], route["bz.bz_closed_form", family]
            ratio = (t_or / n_or) / (t_cf / n_cf) if n_or and n_cf and t_cf else 0.0
            out[f"bz.oracle_per_closed_form.{family}"] = ratio
        out.update({f"layer.{layer}.self_s": t for layer, t in by_layer.items()})
        out["trace.root_s"] = self.root_seconds()
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows: index, name, start, end, parent, note."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tnote\n")
            for idx, name in enumerate(self.names):
                note = self.notes.get(idx, self.raised.get(idx, ""))
                fh.write(
                    f"{idx}\t{name}\t{self.starts[idx]:.9f}\t{self.ends[idx]:.9f}\t"
                    f"{self.parents[idx]}\t{note}\n"
                )
