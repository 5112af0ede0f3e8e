"""Two-sided evaluation of the norm minimax identity.

For square matrices of size at least 2 the best uniform value
sup over unit x of inf over lambda of ||(A + lambda*B) x||
equals the scalar-minimized operator norm
inf over lambda of ||A + lambda*B||.
The right side comes from the certified line search.  The left side is
built from its minimizer lambda*: by the strong side of the identity some
unit x in the top singular band of A + lambda*B has
<(A + lambda*B)x, Bx> = 0, and there inf over mu of ||(A + mu*B)x|| equals
||A + lambda*B||.  That band vector is evaluated directly; a multistart
maximization on the sphere (lhs_sup_inf) runs only when its value falls
short of the right side.  The report records both values with their duality
gap.  Weak duality (lhs <= rhs) holds for every feasible pair of iterates,
so a materially negative gap can only mean the right-hand minimizer failed,
which is treated as an error rather than smoothed over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConvergenceError, Field, InputError, Matrix, Vector, _check_pair
from .core import top_singular_subspace  # noqa: F401  (bench/spans.py traces it here)
from .decision import _band_sup_inf, _max_inner_inf, _saddle_starts
from .lineopt import DEFAULT_BUDGET, DEFAULT_TOL, global_inf_lambda

GAP_TOL = 1e-4          # default relative duality-gap target
_STOP_SLACK = 1e-10     # relative gap at which the lhs counts as reaching the rhs
_MAX_RESTART_SCALE = 4  # doubling cap when the gap refuses to close


def _square_pair(a: Matrix, b: Matrix) -> None:
    _check_pair(a, b, square=True)
    if a.rows < 2:
        raise InputError("the minimax identity needs dimension at least 2")


@dataclass(frozen=True)
class SupInfResult:
    """Best uniform-value iterate: the sup-inf estimate and its maximizer."""

    value: float
    x: Vector
    restarts: int


def lhs_sup_inf(a: Matrix, b: Matrix, *, restarts: int = 50, seed: int = 0,
                lambda_hint=None, max_iter: int = 400,
                stop_at: float | None = None) -> SupInfResult:
    """Maximize x -> inf over lambda of ||(A + lambda*B) x|| over unit vectors.

    Starts from the top singular basis of a, from the pencil basis at
    lambda_hint when given, and from seeded random points.  Every reported
    value is a genuinely evaluated point, hence a lower bound on the
    scalar-minimized norm up to roundoff.  stop_at, when given, must itself
    be such an upper bound (e.g. the other side of the identity minus the
    accepted slack); reaching it ends the search early.
    """
    _square_pair(a, b)
    extra = [] if lambda_hint is None else _saddle_starts(a, b, lambda_hint)
    stop = -math.inf if stop_at is None else -(max(stop_at, 0.0) ** 2)
    phi, x, used = _max_inner_inf(a, b, restarts=restarts, seed=seed,
                                  max_iter=max_iter, extra_starts=extra,
                                  stop_below=stop)
    return SupInfResult(value=math.sqrt(max(phi, 0.0)), x=Vector(a.field, x),
                        restarts=used)


def rhs_inf_sup(a: Matrix, b: Matrix, *, tol: float = DEFAULT_TOL,
                budget: int = DEFAULT_BUDGET):
    """Scalar-minimized operator norm, inf over lambda of ||A + lambda*B||."""
    _square_pair(a, b)
    return global_inf_lambda(a, b, tol=tol, budget=budget)


@dataclass(frozen=True)
class MinimaxReport:
    """Both sides of the minimax identity for one pair, with the duality gap.

    gap = rhs_value - lhs_value is nonnegative up to solver error;
    rel_gap divides by max(rhs_value, 1).  restarts_used counts the sphere
    starts actually run over all fallback searches: 0 when the band vector
    at argmin_lambda closed the gap by itself.  restart_starved flags a gap
    that stayed above gap_tol after the restart budget was scaled up 4x.
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


def minimax_report(a: Matrix, b: Matrix, *, restarts: int = 50, seed: int = 0,
                   tol: float = DEFAULT_TOL, gap_tol: float = GAP_TOL,
                   budget: int = DEFAULT_BUDGET) -> MinimaxReport:
    """Evaluate both sides of the minimax identity and quantify the gap.

    The lhs is first the largest phi on the top singular band of the pencil
    at the rhs minimizer (see the module docstring).  When that misses the
    rhs by more than min(gap_tol, 1e-10) relative, the sphere search
    (lhs_sup_inf) runs and reruns with doubled restarts (up to 4x) while the
    relative gap exceeds gap_tol; if it still does, the report is returned
    with restart_starved=True rather than hiding the shortfall.  A relative
    gap below -1e-9 means the certified minimizer was beaten by a feasible
    point, which is impossible at convergence, so it raises ConvergenceError.
    """
    _square_pair(a, b)
    rhs = rhs_inf_sup(a, b, tol=tol, budget=budget)
    scale = max(rhs.value, 1.0)
    # sound early-stop: lhs <= rhs always, so a value this close to rhs is
    # within noise of the supremum (well inside the gap statistics targets)
    stop_at = rhs.value - _STOP_SLACK * scale

    value, x = _band_sup_inf(a, b, rhs.lambda_star)
    best_value, best_x, used = value, Vector(a.field, x), 0
    if (rhs.value - best_value) / scale > min(gap_tol, _STOP_SLACK):
        allowed = restarts
        while True:
            trial = lhs_sup_inf(a, b, restarts=allowed, seed=seed,
                                lambda_hint=rhs.lambda_star, stop_at=stop_at)
            used += trial.restarts
            if trial.value > best_value:
                best_value, best_x = trial.value, trial.x
            if ((rhs.value - best_value) / scale <= gap_tol
                    or allowed >= restarts * _MAX_RESTART_SCALE):
                break
            allowed = min(allowed * 2, restarts * _MAX_RESTART_SCALE)

    gap = rhs.value - best_value
    rel_gap = gap / scale
    if gap < -1e-9:
        raise ConvergenceError(
            f"negative duality gap {gap:.3e}: scalar minimization did not converge")
    return MinimaxReport(field=a.field, lhs_value=best_value, rhs_value=rhs.value,
                         gap=gap, rel_gap=rel_gap, argmin_lambda=rhs.lambda_star,
                         argmax_x=best_x, evaluations=rhs.evaluations,
                         restarts_used=used,
                         restart_starved=rel_gap > gap_tol,
                         budget_limited=rhs.budget_limited)
