"""Two-sided evaluation of the norm minimax identity.

For any pair of m x n matrices the best uniform value
sup over unit x of inf over lambda of ||(A + lambda*B) x||
equals the scalar-minimized operator norm
inf over lambda of ||A + lambda*B||.
Both sides come from one primal-dual solve (lineopt.global_inf_lambda):
the right side is the norm at its minimizer lambda*, and the left side is
phi(x) = inf over mu of ||(A + mu*B)x|| at its certificate x, a unit vector
of the top singular band of A + lambda*B with <(A + lambda*B)x, Bx> = 0.
Weak duality (phi(x) <= ||A + lambda*B|| for every x and lambda) makes the
pair a certified bracket, and the report records both values with their
duality gap.  lhs_sup_inf, a multistart maximization of phi on the sphere,
stays as an independent computation of the left side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sphere import multistart_minimize
from .core import DEFAULT_BUDGET, DEFAULT_TOL, Field, Matrix, Vector, _Pair, _top_band
from .core import top_singular_subspace  # noqa: F401  (bench/spans.py traces it here)
from .lineopt import global_inf_lambda

GAP_TOL = 1e-4   # default relative duality-gap target


@dataclass(frozen=True)
class SupInfResult:
    """Best uniform-value iterate: the sup-inf estimate and its maximizer."""

    value: float
    x: Vector
    restarts: int


def _neg_phi_fg(aa: np.ndarray, ba: np.ndarray):
    """Negated phi(x) = ||Ax||^2 - |<Ax, Bx>|^2 / ||Bx||^2 with its gradient."""
    ah = aa.conj().T
    bh = ba.conj().T

    def fg(x):
        u = aa @ x
        v = ba @ x
        uu = np.vdot(u, u).real
        vv = np.vdot(v, v).real
        au = ah @ u
        if vv <= 1e-300:
            return -uu, -2.0 * au
        c = np.vdot(v, u)
        cc = (c.conjugate() * c).real
        f = uu - cc / vv
        g = 2.0 * (au - ((c.conjugate() * (bh @ u) + c * (ah @ v)) * vv
                         - cc * (bh @ v)) / (vv * vv))
        return -f, -g

    return fg


def lhs_sup_inf(a: Matrix, b: Matrix, *, restarts: int = 50, seed: int = 0,
                lambda_hint=None, stop_at: float | None = None) -> SupInfResult:
    """Maximize x -> inf over lambda of ||(A + lambda*B) x|| over unit vectors.

    Sphere descents start from the top singular basis of a, then from the
    top band of A + lambda_hint*B when given, then from `restarts` seeded
    random points.  At an exact minimizer lambda* some vector of that band
    maximizes phi; the band's relative width of 1e-4 absorbs the error in
    lambda_hint.  Every reported value is a genuinely evaluated point, hence
    a lower bound on the scalar-minimized norm up to roundoff.  stop_at,
    when given, must itself be such an upper bound (e.g. the other side of
    the identity minus the accepted slack); reaching it ends the search
    early.
    """
    pair = _Pair.of(a, b)
    starts = list(_top_band(a.data, 1e-8)[1].T)
    if lambda_hint is not None:
        starts += list(_top_band(a.data + lambda_hint * b.data, 1e-4)[1].T)
    stop = -math.inf if stop_at is None else -(max(stop_at, 0.0) ** 2)
    neg_phi, x, used = multistart_minimize(
        _neg_phi_fg(a.data, b.data), a.cols, complex_field=pair.field is Field.COMPLEX,
        restarts=restarts, seed=seed, det_starts=starts, max_iter=400, stop_below=stop)
    return SupInfResult(value=math.sqrt(max(-neg_phi, 0.0)), x=Vector(a.field, x),
                        restarts=used)


def rhs_inf_sup(a: Matrix, b: Matrix, *, tol: float = DEFAULT_TOL,
                budget: int = DEFAULT_BUDGET):
    """Scalar-minimized operator norm, inf over lambda of ||A + lambda*B||."""
    return global_inf_lambda(a, b, tol=tol, budget=budget)


@dataclass(frozen=True)
class MinimaxReport:
    """Both sides of the minimax identity for one pair, with the duality gap.

    gap = rhs_value - lhs_value is nonnegative up to rounding; rel_gap
    divides by max(rhs_value, 1).  restart_starved flags a relative gap
    above gap_tol (the solver ran out of budget or stagnated), and
    restarts_used is always 0: no sphere search runs.  Both names are kept
    for schema_version 1.
    """

    field: Field
    lhs_value: float
    rhs_value: float
    gap: float
    rel_gap: float
    argmin_lambda: object
    argmax_x: Vector
    evaluations: int
    restarts_used: int
    restart_starved: bool
    budget_limited: bool

    def to_json_dict(self) -> dict:
        lam = complex(self.argmin_lambda)
        return {
            "field": self.field.value,
            "lhs": self.lhs_value,
            "rhs": self.rhs_value,
            "gap": self.gap,
            "rel_gap": self.rel_gap,
            "argmin_lambda": [lam.real, lam.imag],
            "argmax_x": self.argmax_x.to_pairs(),
            "evaluations": self.evaluations,
            "restarts_used": self.restarts_used,
            "restart_starved": self.restart_starved,
            "budget_limited": self.budget_limited,
        }


def minimax_report(a: Matrix, b: Matrix, *, tol: float = DEFAULT_TOL,
                   gap_tol: float = GAP_TOL,
                   budget: int = DEFAULT_BUDGET) -> MinimaxReport:
    """Evaluate both sides of the minimax identity and quantify the gap.

    The rhs is the distance solver's value and the lhs is phi at its
    certificate vector (see the module docstring).  A relative gap above
    gap_tol is reported with restart_starved=True rather than hidden.
    """
    rhs = rhs_inf_sup(a, b, tol=tol, budget=budget)
    gap = rhs.value - rhs.lower_bound
    rel_gap = gap / max(rhs.value, 1.0)
    return MinimaxReport(field=a.field, lhs_value=rhs.lower_bound, rhs_value=rhs.value,
                         gap=gap, rel_gap=rel_gap, argmin_lambda=rhs.lambda_star,
                         argmax_x=rhs.certificate, evaluations=rhs.evaluations,
                         restarts_used=0, restart_starved=rel_gap > gap_tol,
                         budget_limited=rhs.budget_limited)
