"""Deciding Birkhoff-James orthogonality of a matrix pair, two independent ways.

A is orthogonal to B when no scalar multiple of B brings A closer to zero:
inf over lambda of ||A + lambda*B|| stays at ||A||.  The definitional route
simply runs that minimization.  The witness route instead looks for a unit
vector x that attains the norm of A and is sent by A and B to orthogonal
images; in finite dimension such a witness exists exactly when the pair is
orthogonal, and the search reduces to asking whether zero lies in the
numerical range of the compression of B*A to the top singular subspace of A.

Each public function validates its pair once, into a core _Pair holding
||A|| and ||B||, for the private route kernels; `decide` shares one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._sphere import multistart_minimize  # noqa: F401  (bench/spans.py traces it here)
from .core import (DEFAULT_BUDGET, DEFAULT_TOL, ConvergenceError, InputError, Matrix, Vector,
                   inner, operator_norm, top_singular_subspace, _Pair)
from .lineopt import global_inf_lambda  # noqa: F401  (bench/spans.py traces it here)
from .lineopt import (SeparationCertificate, _compression, _solve, inner_inf,
                      zero_in_numerical_range)

# zero counts as inside the compression's numerical range within this share
# of ||A|| * ||B||
_NR_REL_TOL = 1e-9


class Status(enum.Enum):
    ORTHOGONAL = "ORTHOGONAL"
    NOT_ORTHOGONAL = "NOT_ORTHOGONAL"
    BOUNDARY = "BOUNDARY"


class Method(enum.Enum):
    DEFINITIONAL = "DEFINITIONAL"
    WITNESS = "WITNESS"


class WitnessSearchError(ConvergenceError):
    """The witness route certified neither outcome: zero lies in the numerical
    range, but the constructed witness misses the residual threshold."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class Verdict:
    """Orthogonality decision with its certifying quantity.

    margin is inf over lambda of ||A + lambda*B|| minus ||A|| (never positive)
    when the definitional route computed it; the witness route leaves it None
    and certifies through `certificate` instead.
    """

    status: Status
    margin: float | None
    method: Method
    tol: float
    certificate: SeparationCertificate | None = None


@dataclass(frozen=True)
class Witness:
    """Unit vector certifying orthogonality up to the recorded epsilon."""

    x: Vector
    norm_residual: float
    ip_residual: float
    epsilon: float

    def __post_init__(self):
        if abs(self.x.norm() - 1.0) > 1e-10:
            raise InputError("witness vector must be unit length")
        if self.norm_residual > self.epsilon or self.ip_residual > self.epsilon:
            raise InputError("witness residuals exceed the certified epsilon")

    @classmethod
    def from_vector(cls, a: Matrix, b: Matrix, x_arr: np.ndarray) -> "Witness":
        """Build a witness from a raw vector, recomputing residuals from scratch."""
        nx = float(np.linalg.norm(x_arr))
        if nx == 0.0:
            raise InputError("witness vector must be nonzero")
        x_arr = x_arr / nx
        u = a.data @ x_arr
        v = b.data @ x_arr
        norm_res = max(operator_norm(a) - float(np.linalg.norm(u)), 0.0)
        ip_res = abs(inner(u, v))
        return cls(x=Vector(a.field, x_arr), norm_residual=norm_res,
                   ip_residual=ip_res, epsilon=max(norm_res, ip_res))


@dataclass(frozen=True)
class WitnessFailure:
    """No unit vector reached the required value; expected for non-orthogonal pairs."""

    best_value: float
    threshold: float
    best_x: Vector


def check_definitional(a: Matrix, b: Matrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide orthogonality straight from the norm-minimization definition.

    The solve brackets inf over lambda of ||a + lambda*b|| by its certified
    [lower_bound, value]: NOT_ORTHOGONAL when value < ||a|| - tol, ORTHOGONAL
    when lower_bound >= ||a|| - tol, and BOUNDARY when it straddles ||a|| - tol.
    """
    return _definitional(_Pair.of(a, b), tol)


def _definitional(pair: _Pair, tol: float) -> Verdict:
    if not (0.0 < tol < 1.0):
        raise InputError(f"tol must lie in (0, 1), got {tol}")
    res = _solve(pair, min(tol * 0.1, 1e-7), DEFAULT_BUDGET)
    margin = min(res.value - pair.norm_a, 0.0)
    if margin < -tol:
        status = Status.NOT_ORTHOGONAL
    elif res.lower_bound >= pair.norm_a - tol:
        status = Status.ORTHOGONAL
    else:
        status = Status.BOUNDARY
    return Verdict(status=status, margin=margin, method=Method.DEFINITIONAL, tol=tol)


def vector_bj_check(u: Vector, v: Vector, tol: float = 1e-8):
    """Orthogonality of a vector pair: inf over lambda of ||u + lambda*v|| >= ||u|| - tol.

    Returns (bool, |<u, v>|); the two quantities vanish together, which is
    what makes the inner-product test an equivalent shortcut.
    """
    res = inner_inf(u, v)
    return bool(res.value >= u.norm() - tol), abs(inner(u, v))


def find_witness(a: Matrix, b: Matrix):
    """Exact-witness route: build a witness on the top singular subspace of a.

    Either returns a Witness (orthogonal, certificate vector included) or a
    NOT_ORTHOGONAL Verdict whose certificate is the separating half-plane of
    the compression's numerical range.  Zero counts as inside the range
    within _NR_REL_TOL * ||a|| * ||b||.  The witness's norm residual must
    stay within 2e-8 * ||a|| and its inner-product residual within
    1e-8 * ||a|| * ||b||; both are re-checked from scratch on the assembled
    witness, which is the source of truth.

    The witness is y lifted to the top subspace, where y is the unit vector
    with <Cy, y> = 0 that zero_in_numerical_range returns for the
    compression C of B*A (the inverse field-of-values construction); nothing
    is searched.  Raises WitnessSearchError when the numerical range says a
    witness should exist but the constructed vector misses the threshold.
    """
    verdict, witness = _witness_route(_Pair.of(a, b))
    return verdict if witness is None else witness


def _witness_route(pair: _Pair):
    """find_witness on a validated pair: the route's Verdict, whose tol is
    the numerical-range threshold in either outcome, and the Witness or None."""
    scale = pair.norm_a * pair.norm_b
    # ||Ax|| is held by A's band (sigma >= ||A||(1 - 1e-8)) whatever ||B|| is,
    # so its residual bound is in units of ||A|| alone: twice the band width
    norm_bound, ip_bound = 2e-8 * pair.norm_a, 1e-8 * scale
    nr_tol = _NR_REL_TOL * scale
    a, b = pair.a, pair.b

    basis = np.column_stack([vec.data for vec in top_singular_subspace(a).top_subspace])
    contains, cert, y = zero_in_numerical_range(
        Matrix(pair.field, _compression(a.data, b.data, basis)), nr_tol)
    if not contains:
        return Verdict(status=Status.NOT_ORTHOGONAL, margin=None,
                       method=Method.WITNESS, tol=nr_tol, certificate=cert), None

    witness = Witness.from_vector(a, b, basis @ y)
    if witness.norm_residual > norm_bound or witness.ip_residual > ip_bound:
        raise WitnessSearchError(
            f"witness construction failed: residuals {witness.norm_residual:.3e} (norm) "
            f"and {witness.ip_residual:.3e} (inner product) above {norm_bound:.3e} "
            f"and {ip_bound:.3e}", best_residual=witness.epsilon)
    return Verdict(status=Status.ORTHOGONAL, margin=None, method=Method.WITNESS,
                   tol=nr_tol), witness


def epsilon_witness(a: Matrix, b: Matrix, eps: float):
    """Find a unit x with phi(x) = inf over lambda of ||(A + lambda B)x||
    above ||A|| - eps, or certify that none exists.

    Success certifies orthogonality up to eps.  The distance solver returns,
    with inf over lambda of ||A + lambda B||, a certificate vector x whose
    phi(x) is its lower bound.  By the minimax identity sup_x phi(x) equals
    that infimum, so on a converged solve phi(x) is the supremum of phi to
    the solver's tolerance: x is the Witness when phi(x) clears the
    threshold, and otherwise a WitnessFailure reports best_x = x and
    best_value = phi(x).  No search is run.
    """
    pair = _Pair.of(a, b)
    sigma_a = pair.norm_a
    if sigma_a == 0.0:
        raise InputError("epsilon_witness needs a nonzero first matrix")
    if not (0.0 < eps < sigma_a):
        raise InputError(f"eps must lie in (0, ||a||) = (0, {sigma_a:.6g}), got {eps}")
    threshold = sigma_a - eps

    dist = _solve(pair, DEFAULT_TOL, DEFAULT_BUDGET)
    if dist.lower_bound > threshold:
        return Witness.from_vector(a, b, dist.certificate.data)
    return WitnessFailure(best_value=dist.lower_bound, threshold=threshold,
                          best_x=dist.certificate)


def _warn(msg: str, *args) -> None:
    import logging   # here, not at the top: only these rare branches need it
    logging.getLogger("bjorth").warning(msg, *args)


@dataclass(frozen=True)
class DecisionReport:
    """Combined outcome of the requested decision routes."""

    verdict: Verdict
    definitional: Verdict | None
    witness_verdict: Verdict | None
    witness: Witness | None
    witness_error: str | None = None


def decide(a: Matrix, b: Matrix, *, method: str = "both",
           tol: float = DEFAULT_TOL) -> DecisionReport:
    """Run the definitional route, the witness route, or both.

    When both run and disagree inside the band |margin| <= 10*tol the combined
    status is BOUNDARY; a disagreement outside the band is logged and the
    definitional verdict wins (it carries the margin).
    """
    if method not in ("def", "witness", "both"):
        raise InputError(f"method must be 'def', 'witness' or 'both', got {method!r}")

    pair = _Pair.of(a, b)
    defv = witv = witness = werr = None
    if method in ("def", "both"):
        defv = _definitional(pair, tol)
    if method in ("witness", "both"):
        try:
            witv, witness = _witness_route(pair)
        except WitnessSearchError as exc:
            if method == "witness":
                raise
            werr = str(exc)

    if method == "def":
        return DecisionReport(defv, defv, None, None)
    if method == "witness":
        return DecisionReport(witv, None, witv, witness)

    if witv is None:
        _warn("witness route inconclusive (%s); reporting definitional verdict", werr)
        return DecisionReport(defv, defv, None, None, witness_error=werr)
    if witv.status is defv.status:
        return DecisionReport(defv, defv, witv, witness)
    if abs(defv.margin) <= 10.0 * tol:
        combined = Verdict(status=Status.BOUNDARY, margin=defv.margin,
                           method=Method.DEFINITIONAL, tol=tol,
                           certificate=witv.certificate)
        _warn("routes disagree inside the boundary band: margin=%.3e", defv.margin)
        return DecisionReport(combined, defv, witv, witness)
    _warn("routes disagree outside the boundary band: margin=%.3e, witness says %s",
          defv.margin, witv.status.value)
    return DecisionReport(defv, defv, witv, witness)
