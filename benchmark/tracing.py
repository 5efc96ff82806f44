"""In-memory span tracer that wraps binrec's public functions from outside.

A span records name, start, end and the index of its parent span.  Spans
stay in memory until the benchmark writes them out at the end of a run.
The wrappers replace a function in every loaded binrec module that binds
it, so calls made inside the program (``recovery`` calling
``solve_box_qp``, ``experiments`` calling ``solve``) are seen as well.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)


@dataclass
class Trial:
    """Inputs and program outputs of one sweep trial, captured in a traced
    pass so that the checks can see the points the sweep records omit."""

    A: np.ndarray
    x0: np.ndarray | None = None
    reports: list = field(default_factory=list)  # (program, b, RecoveryReport)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trials: list[Trial] = []
        self._lp_seen: set = set()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str) -> Span:
        s = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(span, args, result)`` runs once the
        span is closed, so bookkeeping is not charged to the layer."""
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if after is not None:
                after(s, args, result)
            return result
        return traced

    # --- hooks -------------------------------------------------------------

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def on_gen_matrix(self, s, args, result):
        m, n = result.entries.shape
        s.attrs["out_mb"] = m * n * 8 / 1e6
        self._lp_seen.clear()  # a trial starts with its matrix
        if self._inside("experiments.run_cell"):
            self.trials.append(Trial(result.entries))

    def on_gen_sparse_binary(self, s, args, result):
        if self._inside("experiments.run_cell"):
            self.trials[-1].x0 = result.dense()

    def on_program(self, s, args, result):
        if self._inside("experiments.run_cell"):
            self.trials[-1].reports.append((result.program, args[0].b, result))

    def on_solve_lp(self, s, args, result):
        p = args[0]
        h = hashlib.blake2b(digest_size=16)
        for a in (p.c, p.A_eq, p.b_eq, p.A_ineq, p.b_ineq, p.lower, p.upper):
            h.update(np.ascontiguousarray(a).tobytes())
            h.update(repr(a.shape).encode())
        key = h.digest()
        s.attrs["repeated"] = key in self._lp_seen
        self._lp_seen.add(key)

    def on_box_qp(self, s, args, result):
        s.attrs["iterations"] = result.iterations
        s.attrs["converged"] = result.converged

    # --- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover (the
        children of one span never overlap: the traced run is serial)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, **s.attrs} for s in self.spans], f)
            f.write("\n")


# (module, function, span name, hook method name or None)
TARGETS = (
    ("ensembles", "gen_matrix", "ensembles.gen_matrix", "on_gen_matrix"),
    ("ensembles", "gen_sparse_binary", "ensembles.gen_sparse_binary", "on_gen_sparse_binary"),
    ("optim", "solve_lp", "optim.solve_lp", "on_solve_lp"),
    ("optim", "solve_box_qp", "optim.solve_box_qp", "on_box_qp"),
    ("optim", "solve_box_ls", "optim.solve_box_ls", None),
    ("recovery", "box_bp", "recovery.box_bp", "on_program"),
    ("recovery", "mibi_bp", "recovery.mibi_bp", "on_program"),
    ("recovery", "box_ls", "recovery.box_ls", "on_program"),
    ("recovery", "robust_box_bp", "recovery.robust_box_bp", None),
    ("recovery", "solve", "recovery.solve", None),
    ("analysis", "build_dual_certificate", "analysis.build_dual_certificate", None),
    ("analysis", "verify_certificate", "analysis.verify_certificate", None),
    ("experiments", "run_cell", "experiments.run_cell", None),
    ("experiments", "run_phase_transition", "experiments.run_phase_transition", None),
    ("experiments", "write_csv", "experiments.write_csv", None),
)


@contextmanager
def installed(tracer: Tracer, probe_phase1: bool = True):
    """Replace every target in every binrec module that binds it; restore
    the originals on exit.  With ``probe_phase1`` each ``solve_lp`` is
    preceded by a probe call to the original ``lp_feasible`` on the same
    problem, its own span, which times the simplex's phase 1."""
    import binrec.optim
    lp_feasible = binrec.optim.lp_feasible
    modules = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "binrec" or name.startswith("binrec."))]
    saved = []
    for module, attr, name, hook in TARGETS:
        original = getattr(sys.modules[f"binrec.{module}"], attr)
        replacement = tracer.wrap(name, original,
                                  getattr(tracer, hook) if hook else None)
        if attr == "solve_lp" and probe_phase1:
            replacement = _with_phase1_probe(tracer, replacement, lp_feasible)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                saved.append((mod, attr, original))
                setattr(mod, attr, replacement)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _with_phase1_probe(tracer: Tracer, traced_solve_lp, lp_feasible):
    def solve_lp(p, *args, **kwargs):
        with tracer.span("trace.lp_phase1_probe"):
            lp_feasible(p)
        return traced_solve_lp(p, *args, **kwargs)
    return solve_lp


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass (times in s).  ``.s`` is a
    layer's inclusive time, ``.self_s`` its self time."""
    spans = tracer.spans
    own = tracer.self_times()
    # inclusive times leave out the phase-1 probes, which run only when traced
    probed = [0.0] * len(spans)
    for s in spans:
        if s.name == "trace.lp_phase1_probe":
            i = s.parent
            while i >= 0:
                probed[i] += s.end - s.start
                i = spans[i].parent
    total: dict = {}
    self_s: dict = {}
    calls: dict = {}
    for s, o, p in zip(spans, own, probed):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start - p)
        self_s[s.name] = self_s.get(s.name, 0.0) + o
        calls[s.name] = calls.get(s.name, 0) + 1

    def ancestors(i):
        while spans[i].parent >= 0:
            i = spans[i].parent
            yield spans[i].name

    qp = [i for i, s in enumerate(spans) if s.name == "optim.solve_box_qp"]
    lp = [s for s in spans if s.name == "optim.solve_lp"]
    probe = total.get("trace.lp_phase1_probe", 0.0)
    admm = sum(1 for i in qp
               if spans[spans[i].parent].name != "optim.solve_box_ls"
               and "recovery.robust_box_bp" in ancestors(i))
    return {
        "ensembles.gen_matrix.calls": calls.get("ensembles.gen_matrix", 0),
        "ensembles.gen_matrix.self_s": self_s.get("ensembles.gen_matrix", 0.0),
        "ensembles.gen_matrix.out_mb": sum(s.attrs["out_mb"] for s in spans
                                           if s.name == "ensembles.gen_matrix"),
        "optim.solve_lp.calls": len(lp),
        "optim.solve_lp.self_s": self_s.get("optim.solve_lp", 0.0),
        "optim.solve_lp.repeated": sum(1 for s in lp if s.attrs["repeated"]),
        "optim.lp_phase1_s": probe,
        "optim.lp_phase2_s": total.get("optim.solve_lp", 0.0) - probe,
        "optim.solve_box_qp.calls": len(qp),
        "optim.solve_box_qp.self_s": self_s.get("optim.solve_box_qp", 0.0),
        "optim.solve_box_qp.iterations": sum(spans[i].attrs["iterations"] for i in qp),
        "optim.solve_box_qp.iterations_max": max((spans[i].attrs["iterations"] for i in qp),
                                                 default=0),
        "optim.solve_box_qp.unconverged": sum(1 for i in qp if not spans[i].attrs["converged"]),
        "recovery.box_bp.s": total.get("recovery.box_bp", 0.0),
        "recovery.mibi_bp.s": total.get("recovery.mibi_bp", 0.0),
        "recovery.box_ls.s": total.get("recovery.box_ls", 0.0),
        "recovery.robust_box_bp.s": total.get("recovery.robust_box_bp", 0.0),
        "recovery.robust_box_bp.self_s": self_s.get("recovery.robust_box_bp", 0.0),
        "recovery.robust_box_bp.admm_iterations": admm,
        "analysis.build_dual_certificate.self_s": self_s.get("analysis.build_dual_certificate", 0.0),
        "analysis.verify_certificate.self_s": self_s.get("analysis.verify_certificate", 0.0),
        "experiments.run_cell.s": total.get("experiments.run_cell", 0.0),
        "experiments.run_phase_transition.self_s": self_s.get("experiments.run_phase_transition", 0.0),
        "experiments.write_csv.s": total.get("experiments.write_csv", 0.0),
    }


def repeated_lp_share(tracer: Tracer) -> float:
    """Share of solve_lp self time spent on LPs already solved in the same
    trial (0 when no LP ran)."""
    own = tracer.self_times()
    lp = [(s, o) for s, o in zip(tracer.spans, own) if s.name == "optim.solve_lp"]
    total = sum(o for _, o in lp)
    return sum(o for s, o in lp if s.attrs["repeated"]) / total if total else 0.0
