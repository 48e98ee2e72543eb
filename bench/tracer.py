"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``ltisec`` module in
every ``ltisec`` namespace that bound them at import (``analysis`` and
``synthesis`` import ``io_matrix`` by name, so patching ``ltisec.model``
alone would miss their calls), wraps ``DetectorSession.__init__``/``push``
on the class, and counts LAPACK work at ``numpy.linalg`` and
``scipy.linalg``, including the SVD that ``np.linalg.norm(m, 2)`` runs
through ``numpy.linalg._linalg``.  LAPACK work is only counted inside a
traced call, so the benchmark's own checks do not show up.

Spans (name, parent, start, end) stay in memory in flat arrays and are
written when the process ends.  A span's self time is its length minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

FUNCTIONS = {
    "numlin": ["numerical_rank", "null_space", "orth_columns", "intersect",
               "solve_min_norm", "projector"],
    "model": ["io_matrix", "obs_matrix", "ctrl_matrix", "simulate", "validate"],
    "subspaces": ["weakly_unobservable", "output_nulling_reachable",
                  "zero_state_attack_exists"],
    "analysis": ["certify_undetectable", "extension_verdict", "is_zero_state_inducing",
                 "classify"],
    "synthesis": ["find_zero_dynamics_modes", "zero_dynamics_attack", "zero_state_synthesize",
                  "undetectable_from_theta", "extend_attack"],
    "detector": ["DetectorSession.__init__", "DetectorSession.push", "batch_decide"],
    "scenario": ["load_scenario", "load_log", "save_log", "save_attack"],
    "reports": ["analyze_report", "certify_report", "repro_aircraft"],
}
MATRIX_BUILDERS = ("model.io_matrix", "model.obs_matrix", "model.ctrl_matrix")
WITH_TOTAL = ("analysis", "synthesis")
CLI_SUBCOMMANDS = ("repro-aircraft", "analyze", "synthesize", "certify", "simulate", "detect")
IMPORTS = (("numpy", "numpy"), ("scipy_linalg", "scipy.linalg"), ("ltisec", "ltisec"))


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            out.append((f"{name}.calls", "count"))
            if mod in WITH_TOTAL:
                out.append((f"{name}.total_ms", "ms"))
            if fn == "DetectorSession.push":
                out.append((f"{name}.p50_us", "us"))
            out.append((f"{name}.self_ms", "ms"))
            if name in MATRIX_BUILDERS:
                out.append((f"{name}.mb", "MB"))
    out.append(("scenario.load_log.records", "count"))
    out += [(f"cli.{sub}.ms", "ms") for sub in CLI_SUBCOMMANDS]
    out += [(f"import.{key}_ms", "ms") for key, _ in IMPORTS]
    for kind in ("svd", "lstsq"):
        out += [(f"lapack.{kind}.calls", "count"), (f"lapack.{kind}.elements", "count")]
    out.append(("lapack.eigvals.calls", "count"))
    out.append(("trace.overhead_pct", "%"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.t0)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.t1.append(0.0)
            self.t0.append(clock())
            self.stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.t1[i] = clock()
                self.stack.pop()
            if post is not None:
                post(out)
            return out

        return traced

    def _lapack(self, kind: str, fn, elements: bool):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if len(self.stack) > 1:
                self.counts[f"lapack.{kind}.calls"] += 1
                if elements:
                    shape = np.shape(a)
                    self.counts[f"lapack.{kind}.elements"] += int(np.prod(shape[-2:]))
            return fn(a, *args, **kwargs)

        return counted

    def _post(self, name: str):
        if name in MATRIX_BUILDERS:
            def post(out):
                self.counts[f"{name}.bytes"] += out.nbytes
            return post
        if name == "scenario.load_log":
            def post(out):
                self.counts["scenario.load_log.records"] += len(out[1])
            return post
        return None

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        import numpy.linalg
        import numpy.linalg._linalg as np_linalg
        import scipy.linalg

        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "ltisec" or key.startswith("ltisec."))]
        for mod, fns in FUNCTIONS.items():
            home = sys.modules[f"ltisec.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                cls_name, _, meth = fn.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._span(name, cls.__dict__[meth], self._post(name)))
                    continue
                orig = getattr(home, fn)
                wrapped = self._span(name, orig, self._post(name))
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapped)
        svd = self._lapack("svd", numpy.linalg.svd, True)
        self._patch(numpy.linalg, "svd", svd)
        self._patch(np_linalg, "svd", svd)
        self._patch(numpy.linalg, "lstsq", self._lapack("lstsq", numpy.linalg.lstsq, True))
        self._patch(numpy.linalg, "eigvals", self._lapack("eigvals", numpy.linalg.eigvals, False))
        self._patch(scipy.linalg, "eigvals", self._lapack("eigvals", scipy.linalg.eigvals, False))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def stats(self) -> dict:
        """Per span name: calls, total and self seconds; push durations;
        plus the counters."""
        sp = self.spans()
        dur = sp["t1"] - sp["t0"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size) if dur.size else dur
        own = dur - child
        out = {"spans": {}, "counts": dict(self.counts), "push_s": []}
        for nid, name in enumerate(self.names):
            sel = sp["name"] == nid
            if not np.any(sel):
                continue
            out["spans"][name] = [int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum())]
            if name == "detector.DetectorSession.push":
                out["push_s"] = dur[sel].tolist()
        return out


def merge(into: dict, other: dict) -> dict:
    for name, (calls, total, own) in other["spans"].items():
        c, t, o = into["spans"].get(name, (0, 0.0, 0.0))
        into["spans"][name] = [c + calls, t + total, o + own]
    for key, value in other["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    into["push_s"] = list(into["push_s"]) + list(other["push_s"])
    return into


def empty_stats() -> dict:
    return {"spans": {}, "counts": {}, "push_s": []}


def layer_values(st: dict, rounds: int) -> dict[str, float]:
    """Per-layer metrics from merged stats, per traced round."""
    vals: dict[str, float] = {}
    counts = st["counts"]
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            calls, total, own = st["spans"].get(name, (0, 0.0, 0.0))
            vals[f"{name}.calls"] = calls / rounds
            if mod in WITH_TOTAL:
                vals[f"{name}.total_ms"] = total * 1e3 / rounds
            if fn == "DetectorSession.push":
                push = st["push_s"]
                vals[f"{name}.p50_us"] = float(np.median(push)) * 1e6 if push else 0.0
            vals[f"{name}.self_ms"] = own * 1e3 / rounds
            if name in MATRIX_BUILDERS:
                vals[f"{name}.mb"] = counts.get(f"{name}.bytes", 0) / 1e6 / rounds
    vals["scenario.load_log.records"] = counts.get("scenario.load_log.records", 0) / rounds
    for kind in ("svd", "lstsq"):
        for part in ("calls", "elements"):
            vals[f"lapack.{kind}.{part}"] = counts.get(f"lapack.{kind}.{part}", 0) / rounds
    vals["lapack.eigvals.calls"] = counts.get("lapack.eigvals.calls", 0) / rounds
    return vals
