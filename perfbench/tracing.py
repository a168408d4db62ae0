"""Spans around the public functions of each gradlocus module.

``Tracer.install`` replaces every target function at every place it is
looked up (the defining module and each module that imported it by
name) and every target method on its class; ``uninstall`` puts the
originals back.  A span is (name, start, end, parent, ok, note): parent
is the index of the enclosing span or -1, ok is False when the call
raised, and note is a per-target number (rows of a DSL batch, charts
found, points counted).  Targets missing from the code are skipped and
listed in ``Tracer.missing``; the worker counts a traced call as failed
when a target is missing or a layer its workload runs recorded no span,
so that a lost measurement never passes for a metric that fell to 0.
"""

from __future__ import annotations

import functools
import math
import sys
import time


def _rows(args, result):
    x = args[1]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _chart_share(args, result):
    n = len(args[1])
    return len(result) / math.comb(n, n // 2)


def _length(args, result):
    return len(result)


def _points(args, result):
    return len(args[0])


# (module, attribute or Class.method, span name, note)
TARGETS = (
    ("cli", "cmd_check", "cli.cmd", None),
    ("cli", "cmd_locus", "cli.cmd", None),
    ("scenarios", "load_scenario", "scenarios.load", None),
    ("dsl", "evaluate", "dsl.evaluate", _rows),
    ("dsl", "gradient", "dsl.gradient", _rows),
    ("dsl", "hessian", "dsl.hessian", _rows),
    ("fields", "ScalarField.gradient", "fields.gradient", None),
    ("fields", "ScalarField.hessian", "fields.hessian", None),
    ("fields", "VectorField.value", "fields.value", None),
    ("fields", "VectorField.jacobian", "fields.jacobian", None),
    ("locus", "PhiSystem.phi", "locus.phi", None),
    ("locus", "PhiSystem.dphi", "locus.dphi", None),
    ("locus", "solve_from_seed", "locus.solve", None),
    ("locus", "sample_locus", "locus.sample_locus", _length),
    ("locus", "chart_memberships", "locus.charts", _chart_share),
    ("locus", "verify_cover", "locus.verify_cover", None),
    ("locus", "box_counting_dimension", "locus.box_counting", _points),
    ("integrability", "gamma_obstruction", "integrability.gamma", None),
    ("integrability", "residual", "integrability.residual", None),
    ("integrability", "left_residual", "integrability.residual", None),
    ("integrability", "right_residual", "integrability.residual", None),
    ("integrability", "symmetric_residual", "integrability.residual", None),
    ("integrability", "equivalence_probe", "integrability.probe", None),
    ("exterior", "gamma_power", "exterior.gamma_power", None),
    ("exterior", "wedge", "exterior.wedge", None),
)
SPANS = frozenset(name for _, _, name, _ in TARGETS)
PACKAGE = "gradlocus"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, ok, 0)
            if note is not None:
                spans[idx] = (name, start, end, parent, ok, note(args, result))
            return result
        return traced

    def install(self):
        self.missing = []
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, attr, name, note in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, method = attr.rpartition(".")
            cls = getattr(owner, cls_name, None) if cls_name else None
            home = cls if cls_name else owner
            orig = vars(home).get(method) if home is not None else None
            if not callable(orig):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(orig, name, note)
            if cls_name:
                self._undo.append((cls, method, orig))
                setattr(cls, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            home, key, orig = self._undo.pop()
            setattr(home, key, orig)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def lost(spans, missing, skips) -> list[str]:
    """Problems of one traced call: trace targets missing from the code,
    and layers outside ``skips`` that recorded no span."""
    recorded = {span[0] for span in spans}
    return ([f"trace target {t} not found" for t in missing]
            + [f"layer {name} recorded no span"
               for name in sorted(SPANS - skips - recorded)])


def _safe(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer figures of one traced command call of ``wall`` seconds.
    Times are seconds per call unless the name says otherwise."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    under_solve = [False] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            under_solve[i] = under_solve[parent] or spans[parent][0] == "locus.solve"
    self_time = [d - c for d, c in zip(dur, child)]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def pick(name):
        if name.endswith("."):
            return [i for key, idx in by_name.items() if key.startswith(name)
                    for i in idx]
        return by_name.get(name, [])

    def total(idx, values):
        return sum(values[i] for i in idx)

    dsl = pick("dsl.")
    fields = pick("fields.")
    solve = pick("locus.solve")
    converged = [i for i in solve if spans[i][4]]
    dphi = [i for i in pick("locus.dphi") if under_solve[i]]
    phi = [i for i in pick("locus.phi") if under_solve[i]]
    sample = pick("locus.sample_locus")
    charts = pick("locus.charts")
    boxes = pick("locus.box_counting")
    gamma = pick("integrability.gamma")
    residual = [i for i in pick("integrability.residual")
                if spans[i][3] < 0 or spans[spans[i][3]][0] != "integrability.residual"]
    gpow = pick("exterior.gamma_power")
    dsl_rows = sum(spans[i][5] for i in dsl)
    roots = [i for i in range(n) if spans[i][3] < 0]
    return {
        "dsl.calls": len(dsl),
        "dsl.rows_per_call": _safe(dsl_rows, len(dsl)),
        "dsl.self_s": total(dsl, self_time),
        "dsl.us_per_row": 1e6 * _safe(total(dsl, dur), dsl_rows),
        "fields.calls": len(fields),
        "fields.self_s": total(fields, self_time),
        "locus.solve.calls": len(solve),
        "locus.solve.s_per_seed": _safe(total(solve, dur), len(solve)),
        "locus.solve.self_s": total(solve, self_time),
        "locus.solve.converged_ratio": _safe(len(converged), len(solve)),
        "locus.lm.dphi_per_seed": _safe(len(dphi), len(solve)),
        "locus.lm.phi_per_dphi": _safe(len(phi), len(dphi)),
        "locus.sample_locus.self_s": total(sample, self_time),
        "locus.kept_per_converged": _safe(sum(spans[i][5] for i in sample),
                                          len(converged)),
        "locus.charts.calls": len(charts),
        "locus.charts.s_per_point": _safe(total(charts, dur), len(charts)),
        "locus.charts.member_ratio": _safe(sum(spans[i][5] for i in charts),
                                           len(charts)),
        "locus.box_counting.s": total(boxes, dur),
        "locus.box_counting.points": sum(spans[i][5] for i in boxes),
        "integrability.gamma.calls": len(gamma),
        "integrability.gamma.self_s": total(gamma, self_time),
        "integrability.residual.s": total(residual, dur),
        "integrability.probe.s": total(pick("integrability.probe"), dur),
        "exterior.gamma_power.calls": len(gpow),
        "exterior.gamma_power.s_per_matrix": _safe(total(gpow, dur), len(gpow)),
        "exterior.wedge.calls": len(pick("exterior.wedge")),
        "cli.cmd.self_s": total(pick("cli.cmd"), self_time),
        "scenarios.load_s": total(pick("scenarios.load"), dur),
        "trace.coverage": _safe(total(roots, dur), wall),
    }

