"""Scenario files: one JSON document describing a structure, a
potential, a prescribed field, a sampling box and tolerances.

Schema::

    {
      "name": "...",
      "dim": n,
      "structure": {"kind": "euclidean" | "symplectic" | "pseudo_euclidean"
                            | "minkowski" | "general",
                    "dim": n, "p": ..., "q": ..., "Q": [[...], ...]},
      "f": "expression",
      "F": ["expression", ...],          # n entries
      "side": "left" | "right",
      "box": [[lo, hi], ...],            # n pairs
      "n_seeds": int,
      "rng_seed": int,
      "tolerances": {"residual": ..., "gamma": ..., "rank": ...,
                     "max_iters": ..., "damping": ..., "dedup_factor": ...}
    }

All fields after "F" are optional, but "tolerances", when present, must
be an object; rng_seed and the tolerances are kept in
``Scenario.options`` and written back in full.  Their values are
checked by ``LocusOptions``; a bad one fails as ``tolerances.<key>``
(or ``rng_seed``).  The file and the fields ``structure.Q``, ``f``,
``F[i]`` and ``box[i]`` are read inside ``errors.reading``, so a
failure to read any of them is a ``ScenarioError`` that names it.  Three
demos ship built in: ``circle-m1`` (Euclidean plane, locus = unit
circle plus the origin), ``plane-m2`` (symplectic R^4, locus = the
x3 = x4 = 0 plane) and ``minkowski-grad`` (an exact pseudo-Euclidean
gradient, whose certified locus is empty: the obstruction vanishes
identically).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import InvalidOption, ScenarioError, reading
from .fields import ScalarField, VectorField
from .geometry import (BilinearForm, make_form, minkowski, pseudo_euclidean,
                       standard_euclidean, standard_symplectic)
from .locus import _PRIMES, MAX_POINTS, LocusOptions

DEFAULT_N_SEEDS = 500
DEFAULT_RNG_SEED = 0
# scenario "tolerances" key -> the LocusOptions field it sets
TOLERANCE_KEYS = {"residual": "tol_residual", "gamma": "tol_gamma",
                  "rank": "tol_rank", "max_iters": "max_iters",
                  "damping": "damping", "dedup_factor": "dedup_factor"}


@dataclass(frozen=True)
class Scenario:
    name: str
    form: BilinearForm
    structure_spec: tuple  # normalized key/value pairs for serialization
    f: ScalarField
    F: VectorField
    side: str
    box: tuple[tuple[float, float], ...]
    n_seeds: int
    options: LocusOptions

    @property
    def dim(self) -> int:
        return self.form.dim

    def box_array(self) -> np.ndarray:
        return np.array(self.box, dtype=float)


def structure_from_dict(d) -> tuple[BilinearForm, tuple]:
    if not isinstance(d, dict):
        raise ScenarioError("structure: expected an object")
    kind = d.get("kind")
    if kind == "euclidean":
        n = int_field("structure.dim", d.get("dim"))
        return standard_euclidean(n), (("kind", "euclidean"), ("dim", n))
    if kind == "symplectic":
        n = int_field("structure.dim", d.get("dim"))
        if n % 2:
            raise ScenarioError(f"structure.dim: symplectic needs even dim, got {n}")
        return standard_symplectic(n // 2), (("kind", "symplectic"), ("dim", n))
    if kind == "pseudo_euclidean":
        p = int_field("structure.p", d.get("p"), minimum=0)
        q = int_field("structure.q", d.get("q"), minimum=0)
        if p + q < 1:
            raise ScenarioError("structure: p + q must be >= 1")
        return pseudo_euclidean(p, q), (("kind", "pseudo_euclidean"),
                                        ("p", p), ("q", q))
    if kind == "minkowski":
        n = int_field("structure.dim", d.get("dim"))
        if n < 2:
            raise ScenarioError("structure.dim: minkowski needs dim >= 2")
        return minkowski(n), (("kind", "minkowski"), ("dim", n))
    if kind == "general":
        Q = d.get("Q")
        if Q is None:
            raise ScenarioError("structure.Q: required for kind 'general'")
        with reading("structure.Q", ScenarioError):
            form = make_form(np.asarray(Q, dtype=float))
        return form, (("kind", "general"),
                      ("Q", tuple(tuple(row) for row in form.Q.tolist())))
    raise ScenarioError(f"structure.kind: unknown kind {kind!r}")


def int_field(field, value, minimum=1, maximum=MAX_POINTS):
    """``value`` if it is an integer in [minimum, maximum], the one check
    of a scenario's integers and of ``--points``; else ScenarioError."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or not minimum <= value <= maximum):
        raise ScenarioError(f"{field}: expected an integer in [{minimum}, "
                            f"{maximum}], got {value!r}")
    return value


def _expression(field, text, dim: int) -> dsl.Expr:
    """The expression ``text`` over x1..xdim, parsed."""
    if not isinstance(text, str):
        raise ScenarioError(f"{field}: expected an expression string")
    with reading(field, ScenarioError):
        return ScalarField.parse(text, dim).expr


def scenario_from_dict(d) -> Scenario:
    if not isinstance(d, dict):
        raise ScenarioError("scenario: expected a JSON object")
    name = d.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: required non-empty string")
    dim = int_field("dim", d.get("dim"))
    if dim > len(_PRIMES):
        raise ScenarioError(f"dim: at most {len(_PRIMES)}, one Halton base "
                            f"per coordinate, got {dim}")
    form, spec = structure_from_dict(d.get("structure"))
    if form.dim != dim:
        raise ScenarioError(
            f"dim: scenario dim {dim} != structure dim {form.dim}")

    f = ScalarField(dim, _expression("f", d.get("f"), dim))
    F_texts = d.get("F")
    if not isinstance(F_texts, list) or len(F_texts) != dim:
        raise ScenarioError(f"F: expected a list of {dim} expression strings")
    F = VectorField(dim=dim, components=tuple(
        _expression(f"F[{i}]", text, dim) for i, text in enumerate(F_texts)))

    side = d.get("side", "left")
    if side not in ("left", "right"):
        raise ScenarioError(f"side: must be 'left' or 'right', got {side!r}")

    box_raw = d.get("box")
    if not isinstance(box_raw, list) or len(box_raw) != dim:
        raise ScenarioError(f"box: expected {dim} [lo, hi] pairs")
    box = []
    for i, pair in enumerate(box_raw):
        with reading(f"box[{i}]", ScenarioError, "expected [lo, hi]"):
            lo, hi = float(pair[0]), float(pair[1])
        # hi - lo is finite exactly when lo and hi are and it does not overflow
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ScenarioError(f"box[{i}]: need finite lo < hi and hi - lo, "
                                f"got {pair!r}")
        box.append((lo, hi))

    n_seeds = int_field("n_seeds", d.get("n_seeds", DEFAULT_N_SEEDS))

    tol = d.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ScenarioError("tolerances: expected an object")
    for key in tol:
        if key not in TOLERANCE_KEYS:
            raise ScenarioError(f"tolerances.{key}: unknown key")
    try:
        options = LocusOptions(
            rng_seed=d.get("rng_seed", DEFAULT_RNG_SEED),
            **{TOLERANCE_KEYS[key]: value for key, value in tol.items()})
    except InvalidOption as exc:
        key = {field: f"tolerances.{key}" for key, field
               in TOLERANCE_KEYS.items()}.get(exc.field, exc.field)
        raise ScenarioError(f"{key}: {exc.reason}") from None

    return Scenario(name=name, form=form, structure_spec=spec, f=f, F=F,
                    side=side, box=tuple(box), n_seeds=n_seeds,
                    options=options)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "dim": s.dim,
        "structure": {k: (list(map(list, v)) if k == "Q" else v)
                      for k, v in s.structure_spec},
        "f": str(s.f.expr),
        "F": [str(c) for c in s.F.components],
        "side": s.side,
        "box": [list(pair) for pair in s.box],
        "n_seeds": s.n_seeds,
        "rng_seed": s.options.rng_seed,
        "tolerances": {key: getattr(s.options, field)
                       for key, field in TOLERANCE_KEYS.items()},
    }


def load_scenario(path) -> Scenario:
    with (reading("scenario file", ScenarioError),
          open(path, "r", encoding="utf-8") as fh):
        text = fh.read()
    with reading("scenario file: invalid JSON", ScenarioError):
        data = json.loads(text)
    return scenario_from_dict(data)


def _demo(name, structure, f, F, box_halfwidth, dim, n_seeds):
    return scenario_from_dict({
        "name": name,
        "dim": dim,
        "structure": structure,
        "f": f,
        "F": F,
        "side": "left",
        "box": [[-box_halfwidth, box_halfwidth]] * dim,
        "n_seeds": n_seeds,
        "rng_seed": 7,
    })


def builtin_demos() -> dict[str, Scenario]:
    """The three shipped demos, keyed by name."""
    circle = _demo(
        "circle-m1",
        {"kind": "euclidean", "dim": 2},
        "(x1^2 + x2^2) / 2",
        ["x1 + (x1^2 + x2^2 - 1) * x2", "x2 - (x1^2 + x2^2 - 1) * x1"],
        box_halfwidth=2.0, dim=2, n_seeds=500,
    )
    plane = _demo(
        "plane-m2",
        {"kind": "symplectic", "dim": 4},
        "x1 * x4",
        ["0", "x1", "x3 - x4", "x4"],
        box_halfwidth=2.0, dim=4, n_seeds=900,
    )
    mink = _demo(
        "minkowski-grad",
        {"kind": "pseudo_euclidean", "p": 1, "q": 1},
        "x1^2 * x2 + sin(x1)",
        ["2 * x1 * x2 + cos(x1)", "-x1^2"],
        box_halfwidth=2.0, dim=2, n_seeds=200,
    )
    return {s.name: s for s in (circle, plane, mink)}
