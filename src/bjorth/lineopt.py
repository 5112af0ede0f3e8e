"""Minimization of ||u + lambda*v|| and ||A + lambda*B|| over a scalar lambda.

The vector problem has a closed form.  The matrix problem is convex in
(Re lambda, Im lambda), so alternating golden-section line searches over a
bounding box converge to the global infimum; the search also cycles a
45-degree rotated coordinate frame to avoid the classic coordinate-descent
stall on non-smooth valleys.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Field, InputError, Matrix, Vector, inner, _sigma_max_sq

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_TOL = 1e-7
DEFAULT_BUDGET = 100_000
MAX_FRAMES = 64   # coordinate-frame sweeps before global_inf_lambda gives up


@dataclass(frozen=True)
class LineMinResult:
    """Outcome of a scalar-parameter norm minimization.

    value : float
        Best objective value found.
    lambda_star : float or complex
        Scalar achieving it (float for the real field).
    evaluations : int
        Number of objective evaluations spent.
    budget_limited : bool
        True when the evaluation cap was hit before the tolerance.
    stop_reason : str
        Why the search ended: "converged" (closed form, or the value stopped
        improving), "budget" (evaluation cap) or "frame_cap" (MAX_FRAMES
        sweeps ran while the value was still improving).
    """

    value: float
    lambda_star: object
    evaluations: int
    budget_limited: bool = False
    stop_reason: str = "converged"


def _check_fields(ua, va, field):
    if ua.field is not va.field:
        raise InputError("operands carry different field tags")
    if field is not None and Field.parse(field.value if isinstance(field, Field) else field) is not ua.field:
        raise InputError("explicit field tag disagrees with the operands")
    return ua.field


def inner_inf(u: Vector, v: Vector, field=None) -> LineMinResult:
    """Closed-form inf over lambda of ||u + lambda*v||.

    With c = <u, v> and v != 0 the minimizer is lambda* = -c / ||v||^2 and the
    squared value is ||u||^2 - |c|^2 / ||v||^2 (clamped at zero against
    rounding).  For v = 0 every lambda ties, so (||u||, 0) is returned.
    """
    fld = _check_fields(u, v, field)
    if u.dim != v.dim:
        raise InputError(f"dimension mismatch: {u.dim} vs {v.dim}")
    uu = float(np.vdot(u.data, u.data).real)
    vv = float(np.vdot(v.data, v.data).real)
    if vv == 0.0:
        lam = 0.0 if fld is Field.REAL else complex(0.0)
        return LineMinResult(math.sqrt(uu), lam, 0)
    c = inner(u, v)
    val = math.sqrt(max(uu - abs(c) ** 2 / vv, 0.0))
    lam = -c / vv
    if fld is Field.REAL:
        lam = float(lam)
    return LineMinResult(val, lam, 0)


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap):
        self.used = 0
        self.cap = cap

    def spend(self) -> bool:
        if self.used >= self.cap:
            return False
        self.used += 1
        return True


def _golden_line(f, a: float, b: float, xtol: float, budget: _Budget):
    """Golden-section minimization of a unimodal f on [a, b].

    Returns (x_best, f_best, exhausted).  Assumes f(a..b) unimodal, which
    holds for any line section of a convex objective.
    """
    h = b - a
    if h <= xtol:
        mid = 0.5 * (a + b)
        if not budget.spend():
            return mid, math.inf, True
        return mid, f(mid), False
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    if not budget.spend():
        return 0.5 * (a + b), math.inf, True
    fc = f(c)
    if not budget.spend():
        return c, fc, True
    fd = f(d)
    while h > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            if not budget.spend():
                break
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            if not budget.spend():
                break
            fd = f(d)
    if fc <= fd:
        return c, fc, budget.used >= budget.cap and h > xtol
    return d, fd, budget.used >= budget.cap and h > xtol


def global_inf_lambda(a: Matrix, b: Matrix, *, tol: float = DEFAULT_TOL,
                      budget: int = DEFAULT_BUDGET) -> LineMinResult:
    """Global infimum over scalar lambda of the spectral norm of a + lambda*b.

    Parameters
    ----------
    a, b : Matrix
        Equal shapes and field tags.
    tol : float
        Absolute tolerance on the value.
    budget : int
        Cap on spectral-norm evaluations; when exhausted the best value so
        far is returned with budget_limited set instead of raising.

    The search also stops after MAX_FRAMES coordinate-frame sweeps; the
    result's stop_reason says which of the three ends was reached.

    The minimizer lies in the disk |lambda| <= 2||a||/||b||, which bounds the
    search box.  lambda = 0 is always evaluated, so the result never exceeds
    ||a||.
    """
    if a.shape != b.shape:
        raise InputError(f"shape mismatch: {a.shape} vs {b.shape}")
    if tol <= 0.0:
        raise InputError("tol must be positive")
    fld = _check_fields(a, b, None)

    meter = _Budget(budget)
    meter.spend()
    norm_a = math.sqrt(_sigma_max_sq(a.data))
    meter.spend()
    norm_b = math.sqrt(_sigma_max_sq(b.data))
    lam0 = 0.0 if fld is Field.REAL else complex(0.0)
    if norm_b == 0.0 or norm_a == 0.0:
        return LineMinResult(norm_a, lam0, meter.used)

    # Work on A/||A||, B/||A||: the search trajectory then depends only on
    # the scale-free shape of the pencil, so (cA, cB) retraces the steps of
    # (A, B) exactly and the result scales by |c| to rounding accuracy.
    unit = norm_a
    aa = a.data / unit
    ba = b.data / unit
    norm_bn = norm_b / unit
    tol_n = tol / unit
    radius = 2.0 / norm_bn
    xtol = max(min(tol_n, 1e-9) / norm_bn, 1e-15 * radius)
    stop_gain = min(tol_n, 1e-9) / 10.0

    def f(lam: complex) -> float:
        arg = lam if fld is Field.COMPLEX else lam.real
        return math.sqrt(_sigma_max_sq(aa + arg * ba))

    best_val = 1.0   # the lambda = 0 objective in normalized units, exactly
    best_lam = 0.0 + 0.0j

    def eval_at(lam: complex) -> float:
        nonlocal best_val, best_lam
        val = f(lam)
        if val < best_val:
            best_val, best_lam = val, lam
        return val

    if fld is Field.REAL:
        frames = [[1.0 + 0.0j]]
    else:
        s = 1.0 / math.sqrt(2.0)
        frames = [[1.0 + 0.0j, 0.0 + 1.0j], [complex(s, s), complex(s, -s)]]
    span = radius * math.sqrt(2.0)

    exhausted = False
    stagnant = 0
    need_stagnant = 1 if len(frames) == 1 else 2
    stop_reason = "frame_cap"
    for i in range(MAX_FRAMES):
        val_before = best_val
        for d in frames[i % len(frames)]:
            center = best_lam

            def g(t: float) -> float:
                return eval_at(center + t * d)

            _, _, exhausted = _golden_line(g, -span, span, xtol, meter)
            if exhausted:
                break
        if exhausted:
            stop_reason = "budget"
            break
        stagnant = stagnant + 1 if val_before - best_val < stop_gain else 0
        if stagnant >= need_stagnant and i >= 1:
            stop_reason = "converged"
            break

    value = best_val * unit
    lam_out = best_lam
    if value > norm_a:   # rounding from the rescale; lambda = 0 is feasible
        value, lam_out = norm_a, 0.0 + 0.0j
    lam_final = float(lam_out.real) if fld is Field.REAL else complex(lam_out)
    return LineMinResult(value, lam_final, meter.used, exhausted, stop_reason)


def limit_lemma_check(scalar, b: float, samples: int = 16) -> bool:
    """Sampled test of: 0 <= |lam|^2 * b^2 + 2*Re(conj(lam) * scalar) for all lam.

    The sample set is deterministic: magnitudes 1, 1e-1, ..., 1e-8 crossed
    with the four axis directions, the directions aligned with the phase of
    the scalar (which make the test sharp), and `samples` further roots of
    unity.  A True answer therefore pins |scalar| <= 1e-8 * b^2 / 2.

    Parameters
    ----------
    scalar : complex or float
    b : float
        Nonnegative magnitude entering the quadratic term.
    samples : int
        Extra sampled directions, at least 4.
    """
    if b < 0.0:
        raise InputError("b must be nonnegative")
    if samples < 4:
        raise InputError("samples must be at least 4")
    z = complex(scalar)
    dirs = [1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j]
    if abs(z) > 0.0:
        ph = z / abs(z)
        dirs += [ph, -ph, 1j * ph, -1j * ph]
    dirs += [cmath.exp(2j * cmath.pi * k / samples) for k in range(samples)]
    mags = [10.0 ** (-e) for e in range(9)]
    bb = b * b
    for t in mags:
        for d in dirs:
            lam = t * d
            if abs(lam) ** 2 * bb + 2.0 * (lam.conjugate() * z).real < 0.0:
                return False
    return True
