"""Deciding Birkhoff-James orthogonality of a matrix pair, two independent ways.

A is orthogonal to B when no scalar multiple of B brings A closer to zero:
inf over lambda of ||A + lambda*B|| stays at ||A||.  The definitional route
simply runs that minimization.  The witness route instead looks for a unit
vector x that attains the norm of A and is sent by A and B to orthogonal
images; in finite dimension such a witness exists exactly when the pair is
orthogonal, and the search reduces to asking whether zero lies in the
numerical range of the compression of B*A to the top singular subspace of A.
"""

from __future__ import annotations

import cmath
import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._sphere import multistart_minimize
from .core import (ConvergenceError, Field, InputError, Matrix, SpectralData,
                   Vector, inner, operator_norm, top_singular_subspace, _check_pair)
from .lineopt import _Budget, _brent_line, global_inf_lambda, inner_inf

log = logging.getLogger("bjorth")

NR_GRID = 720   # coarse angles scanned before local refinement
# Width of the refined angle bracket.  Where the range point nearest zero
# lies inside a flat edge, m(theta) has a kink at its maximum and an angle
# error delta costs |delta| times the edge's half-length, which a 1e-8
# bracket makes comparable to tol.
_NR_XTOL = 1e-10
# Cap on refinement evaluations, far above the 12 to 33 taken on random and
# flat-edge ranges.
_NR_MAX_EVALS = 200


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
class SeparationCertificate:
    """Record of the best separating half-plane found for the numerical range.

    theta is the rotation angle, support the minimum of the rotated real part
    over the unit sphere.  support > tol certifies that zero lies outside.
    """

    theta: float
    support: float
    tol: float


@dataclass(frozen=True)
class Verdict:
    """Orthogonality decision with its certifying quantity.

    margin is inf over lambda of ||A + lambda*B|| minus ||A|| (never positive)
    when the definitional route computed it; the witness route leaves it None
    and certifies through `certificate` instead.
    """

    status: Status
    margin: object
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


def check_definitional(a: Matrix, b: Matrix, tol: float = 1e-7) -> Verdict:
    """Decide orthogonality straight from the norm-minimization definition.

    ORTHOGONAL when inf over lambda of ||a + lambda*b|| >= ||a|| - tol.
    """
    _check_pair(a, b)
    if not (0.0 < tol < 1.0):
        raise InputError(f"tol must lie in (0, 1), got {tol}")
    res = global_inf_lambda(a, b, tol=min(tol * 0.1, 1e-7))
    margin = min(res.value - operator_norm(a), 0.0)
    status = Status.ORTHOGONAL if margin >= -tol else Status.NOT_ORTHOGONAL
    return Verdict(status=status, margin=margin, method=Method.DEFINITIONAL, tol=tol)


def vector_bj_check(u: Vector, v: Vector, tol: float = 1e-8):
    """Orthogonality of a vector pair: inf over lambda of ||u + lambda*v|| >= ||u|| - tol.

    Returns (bool, |<u, v>|); the two quantities vanish together, which is
    what makes the inner-product test an equivalent shortcut.
    """
    res = inner_inf(u, v)
    return bool(res.value >= u.norm() - tol), abs(inner(u, v))


def zero_in_numerical_range(c: Matrix, tol: float | None = None):
    """Test whether zero lies in the numerical range {<Cy, y> : ||y|| = 1}.

    Over the real field the range is the real interval [lambda_min,
    lambda_max] of the symmetric part, checked directly.  Over the complex
    field a 1x1 compression has the single point W(C) = {c}: zero lies
    inside iff |c| <= tol, and the half-plane at theta = -arg(c) has support
    |c|.  Larger compressions scan m(theta) = lambda_min(Re(e^{i theta} C))
    over a 720-point grid in one stacked eigenvalue call, then sharpen the
    best angle by minimizing -m with the distance search's line minimizer
    (Brent's method) to a bracket of 1e-10; a value above tol is a
    separating half-plane, so zero is outside.

    Returns (contains_zero, SeparationCertificate).
    """
    if not c.is_square():
        raise InputError(f"square matrix required, got {c.shape}")
    if tol is None:
        tol = 1e-9 * float(np.linalg.norm(c.data))
    ca = c.data
    if c.field is Field.REAL:
        sym = 0.5 * (ca + ca.T)
        w = np.linalg.eigvalsh(sym)
        lo, hi = float(w[0]), float(w[-1])
        if lo > tol:
            return False, SeparationCertificate(0.0, lo, tol)
        if hi < -tol:
            return False, SeparationCertificate(math.pi, -hi, tol)
        if lo >= -hi:
            return True, SeparationCertificate(0.0, lo, tol)
        return True, SeparationCertificate(math.pi, -hi, tol)

    if c.rows == 1:
        z = complex(ca[0, 0])
        support = abs(z)
        theta = -cmath.phase(z) % (2.0 * math.pi)
        return support <= tol, SeparationCertificate(theta, support, tol)

    h1 = 0.5 * (ca + ca.conj().T)
    h2 = (ca - ca.conj().T) / 2j

    def m(theta: float) -> float:
        w = np.linalg.eigvalsh(math.cos(theta) * h1 - math.sin(theta) * h2)
        return float(w[0])

    step = 2.0 * math.pi / NR_GRID
    grid, stack = _scan_stack(ca)
    mins = np.linalg.eigvalsh(stack)[:, 0]
    j = int(np.argmax(mins))
    best_theta, best_m = float(grid[j]), float(mins[j])

    theta, neg_m, _ = _brent_line(lambda t: -m(t), best_theta - step, best_theta + step,
                                  _NR_XTOL, _Budget(_NR_MAX_EVALS))
    if -neg_m > best_m:
        best_theta, best_m = theta, -neg_m

    best_theta = best_theta % (2.0 * math.pi)
    cert = SeparationCertificate(best_theta, best_m, tol)
    return best_m <= tol, cert


def _scan_stack(ca: np.ndarray):
    """The scan angles and Re(e^{i theta} C) at each of them, stacked."""
    grid = np.arange(NR_GRID) * (2.0 * math.pi / NR_GRID)
    rot = np.exp(1j * grid)[:, None, None] * ca
    return grid, 0.5 * (rot + np.swapaxes(rot.conj(), 1, 2))


def _compression(a: Matrix, b: Matrix, basis: list) -> np.ndarray:
    """Compression of B*A to the span of the given orthonormal basis."""
    m = np.column_stack([vec.data for vec in basis])
    return m.conj().T @ (b.data.conj().T @ (a.data @ m))


def find_witness(a: Matrix, b: Matrix, *, rank_tol: float = 1e-8,
                 eps: float | None = None, nr_tol: float | None = None):
    """Exact-witness route: search the top singular subspace of a.

    Either returns a Witness (orthogonal, certificate vector included) or a
    NOT_ORTHOGONAL Verdict whose certificate is the separating half-plane of
    the compression's numerical range.  Residual thresholds default to
    1e-8 * ||a|| * ||b|| and are always re-checked from scratch on the
    assembled witness, which is the source of truth.

    The witness is built directly by the inverse field-of-values
    construction (_zero_form_vector): a unit y with <Cy, y> = 0 for the
    compression C, lifted to the top subspace.  No search is run.  Raises
    WitnessSearchError when the numerical range says a witness should exist
    but the constructed vector misses the threshold.
    """
    _check_pair(a, b, square=True)
    sd = top_singular_subspace(a, rank_tol)
    sigma_a = sd.op_norm
    sigma_b = operator_norm(b)
    scale = sigma_a * sigma_b
    if eps is None:
        eps = 1e-8 * scale
    if nr_tol is None:
        nr_tol = 1e-9 * scale

    comp = _compression(a, b, sd.top_subspace)
    contains, cert = zero_in_numerical_range(Matrix(a.field, comp), nr_tol)
    if not contains:
        return Verdict(status=Status.NOT_ORTHOGONAL, margin=None,
                       method=Method.WITNESS, tol=nr_tol, certificate=cert)

    basis = np.column_stack([vec.data for vec in sd.top_subspace])
    witness = Witness.from_vector(
        a, b, basis @ _zero_form_vector(comp, a.field is Field.COMPLEX))
    if witness.epsilon > eps:
        raise WitnessSearchError(
            f"witness construction failed: residual {witness.epsilon:.3e} above {eps:.3e}",
            best_residual=witness.epsilon)
    return witness


def epsilon_witness(a: Matrix, b: Matrix, eps: float, *, restarts: int = 32,
                    seed: int = 0, max_iter: int = 400):
    """Search for a unit x with phi(x) = inf over lambda of ||(A + lambda B)x||
    above ||A|| - eps.

    Success certifies orthogonality up to eps.  A failure is first sought
    from the minimax identity sup_x phi(x) = inf_lambda ||A + lambda B||:
    phi(x) <= ||A + lambda B|| for every unit x and every lambda, and the
    distance search returns a norm evaluated at an actual lambda, so when
    that value lies below the threshold no eps-witness can exist and no
    search is run.  Such a WitnessFailure reports as best_x the unit vector
    of largest phi in the pencil's top singular band at that lambda, and
    best_value = phi(best_x).  By the strong side of the identity (some band
    vector x has <(A + lambda B)x, Bx> = 0, hence phi(x) = ||A + lambda B||)
    this is the supremum of phi to the accuracy of the distance search.
    Otherwise (orthogonal or nearly orthogonal pairs) that same band vector
    is returned as the Witness when its phi clears the threshold.  Only when
    it does not (the distance search missed the true minimizer, e.g. at a
    kink) does a multistart sphere search run, and its failure reports the
    best value it reached.
    """
    _check_pair(a, b, square=True)
    sigma_a = operator_norm(a)
    if sigma_a == 0.0:
        raise InputError("epsilon_witness needs a nonzero first matrix")
    if not (0.0 < eps < sigma_a):
        raise InputError(f"eps must lie in (0, ||a||) = (0, {sigma_a:.6g}), got {eps}")
    threshold = sigma_a - eps

    dist = global_inf_lambda(a, b)
    value, best_x = _band_sup_inf(a, b, dist.lambda_star)
    if dist.value <= threshold * (1.0 - 1e-12):   # slack covers the norm's rounding
        return WitnessFailure(best_value=value, threshold=threshold,
                              best_x=Vector(a.field, best_x))
    if value > threshold:
        return Witness.from_vector(a, b, best_x)

    # the objective is capped at ||a||^2, so a start within machine precision
    # of the cap ends the search; the threshold itself is NOT an early-out,
    # otherwise loose eps would return needlessly sloppy witnesses
    stop = -(sigma_a ** 2) * (1.0 - 1e-14)
    best_phi, best_x, _ = _max_inner_inf(a, b, restarts=restarts, seed=seed,
                                         max_iter=max_iter, stop_below=stop)
    value = math.sqrt(max(best_phi, 0.0))
    if value > threshold:
        return Witness.from_vector(a, b, best_x)
    return WitnessFailure(best_value=value, threshold=threshold,
                          best_x=Vector(a.field, best_x))


def _saddle_starts(a: Matrix, b: Matrix, lam) -> list:
    """Top singular band of the pencil A + lam*B, as raw vectors.

    At an exact scalar minimizer lambda*, some vector of this band maximizes
    phi(x) = inf over mu of ||(A + mu B)x||; the band (rank_tol 1e-4) is
    widened to absorb line-search error.  A zero pencil returns the full
    standard basis, on which phi vanishes like everywhere else.
    """
    pencil = Matrix(a.field, a.data + lam * b.data)
    sd = top_singular_subspace(pencil, rank_tol=1e-4)
    return [vec.data for vec in sd.top_subspace]


def _band_sup_inf(a: Matrix, b: Matrix, lam):
    """Largest phi(x) = inf over mu of ||(A + mu B)x|| over the pencil's top
    band at lam, with its vector: phi is evaluated on the band basis and,
    when the band is wider than one vector, on the band vector that zeroes
    <(A + lam B)x, Bx>, which is where phi reaches ||A + lam B|| at a kink."""
    cands = _saddle_starts(a, b, lam)
    if len(cands) >= 2:
        basis = np.column_stack(cands)
        comp = basis.conj().T @ (b.data.conj().T @ ((a.data + lam * b.data) @ basis))
        cands.append(basis @ _zero_form_vector(comp, a.field is Field.COMPLEX))
    fg = _neg_phi_fg(a.data, b.data)
    return max(((math.sqrt(max(-fg(x)[0], 0.0)), x) for x in cands), key=lambda p: p[0])


def _zero_form_vector(c: np.ndarray, complex_field: bool) -> np.ndarray:
    """Unit y with <Cy, y> = 0 when zero lies in the numerical range of C.

    Real field: the extreme eigenvectors of the symmetric part, mixed so
    their values cancel.  Complex field: the range of a 2x2 matrix is an
    affine image of the Bloch sphere, solved exactly by _bloch_zero.  For a
    larger C, the minimal eigenvectors of Re(e^{i theta} C) over the scan
    grid give boundary points of the range; a fan triangle of them holding
    zero is collapsed in two exact 2x2 steps: first a vector on its edge
    whose value is where the line from the third vertex through zero meets
    that edge, then a zero on the span of that vector and the third one.
    When zero is outside the range the result is only a nearby vector.
    """
    if c.shape[0] == 1:   # W(C) = {c}: every unit vector is the same point
        return np.ones(1, dtype=c.dtype)
    if not complex_field:
        w, v = np.linalg.eigh(0.5 * (c + c.T))
        if w[0] >= 0.0 or w[-1] <= 0.0:
            return v[:, 0] if abs(w[0]) <= abs(w[-1]) else v[:, -1]
        y = math.sqrt(w[-1]) * v[:, 0] + math.sqrt(-w[0]) * v[:, -1]
        return y / np.linalg.norm(y)
    if c.shape[0] == 2:
        return _bloch_zero(c)

    xs = np.linalg.eigh(_scan_stack(c)[1])[1][:, :, 0]
    pts = np.einsum("ji,ik,jk->j", xs.conj(), c, xs)
    # signed areas of (0, p0, pj), (0, pj, pj+1) and (0, pj+1, p0) over the fan j >= 1
    d1 = (pts[0].conjugate() * pts[1:-1]).imag
    d2 = (pts[1:-1].conjugate() * pts[2:]).imag
    d3 = (pts[2:].conjugate() * pts[0]).imag
    inside = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
    area = np.where(inside, np.abs(d1 + d2 + d3), 0.0)
    j = int(np.argmax(area))                    # the best-conditioned triangle
    if area[j] <= 1e-12 * float(np.max(np.abs(pts))) ** 2:
        return xs[int(np.argmin(np.abs(pts)))]
    total = d1[j] + d2[j] + d3[j]
    wa, wb = d2[j] / total, d3[j] / total       # barycentric weights of p0, pj
    target = (wa * pts[0] + wb * pts[j + 1]) / (wa + wb)
    q1 = np.linalg.qr(np.column_stack([xs[0], xs[j + 1]]))[0]
    z = q1 @ _bloch_zero(q1.conj().T @ c @ q1 - target * np.eye(2))
    q2 = np.linalg.qr(np.column_stack([z, xs[j + 2]]))[0]
    return q2 @ _bloch_zero(q2.conj().T @ c @ q2)


def _bloch_zero(m: np.ndarray) -> np.ndarray:
    """Unit y in C^2 with <My, y> = 0, or the Bloch-sphere point nearest to it.

    With y y* = (I + s . sigma) / 2 for a unit s in R^3 (sigma the Pauli
    matrices), <My, y> = (tr M + sum_k s_k tr(M sigma_k)) / 2 is affine in s,
    so <My, y> = 0 is two real linear equations: their minimum-norm solution
    plus a null-space step reaches the unit sphere when zero is in the range.
    """
    c0 = 0.5 * (m[0, 0] + m[1, 1])
    cv = 0.5 * np.array([m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])
    r = np.array([cv.real, cv.imag])
    # a nearly flat range (normal M) leaves one equation redundant up to
    # rounding; the cut-off drops it instead of amplifying the rounding
    s = np.linalg.lstsq(r, -np.array([c0.real, c0.imag]), rcond=1e-10)[0]
    ns = float(np.linalg.norm(s))
    if ns < 1.0:
        s = s + math.sqrt(1.0 - ns * ns) * np.linalg.svd(r)[2][-1]
    else:
        s = s / ns
    if s[2] > -0.5:
        y = np.array([1.0 + s[2], s[0] + 1j * s[1]])
    else:
        y = np.array([s[0] - 1j * s[1], 1.0 - s[2]])
    return y / np.linalg.norm(y)


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


def _max_inner_inf(a: Matrix, b: Matrix, *, restarts: int, seed: int,
                   max_iter: int, extra_starts=(), stop_below: float = -math.inf):
    """Maximize x -> inf over lambda of ||(A + lambda B)x|| over the unit sphere.

    Deterministic starts are the top singular basis of a (plus any callers'
    extras); the rest are seeded random points.  Returns (phi_best, x_best).
    """
    sd = top_singular_subspace(a)
    det_starts = [vec.data for vec in sd.top_subspace] + [np.asarray(s) for s in extra_starts]
    fg = _neg_phi_fg(a.data, b.data)
    neg_phi, x, used = multistart_minimize(fg, a.cols, complex_field=a.field is Field.COMPLEX,
                                           restarts=restarts, seed=seed,
                                           det_starts=det_starts, max_iter=max_iter,
                                           stop_below=stop_below)
    return -neg_phi, x, used


@dataclass(frozen=True)
class DecisionReport:
    """Combined outcome of the requested decision routes."""

    verdict: Verdict
    definitional: Verdict | None
    witness_verdict: Verdict | None
    witness: Witness | None
    witness_error: str | None = None


def decide(a: Matrix, b: Matrix, *, method: str = "both", tol: float = 1e-7,
           rank_tol: float = 1e-8) -> DecisionReport:
    """Run the definitional route, the witness route, or both.

    When both run and disagree inside the band |margin| <= 10*tol the combined
    status is BOUNDARY; a disagreement outside the band is logged and the
    definitional verdict wins (it carries the margin).
    """
    if method not in ("def", "witness", "both"):
        raise InputError(f"method must be 'def', 'witness' or 'both', got {method!r}")

    defv = None
    witv = None
    witness = None
    werr = None
    if method in ("def", "both"):
        defv = check_definitional(a, b, tol)
    if method in ("witness", "both"):
        # find_witness's default, passed in so the verdict records the tol used
        nr_tol = 1e-9 * operator_norm(a) * operator_norm(b)
        try:
            out = find_witness(a, b, rank_tol=rank_tol, nr_tol=nr_tol)
        except WitnessSearchError as exc:
            if method == "witness":
                raise
            werr = str(exc)
        else:
            if isinstance(out, Witness):
                witness = out
                witv = Verdict(status=Status.ORTHOGONAL, margin=None,
                               method=Method.WITNESS, tol=nr_tol)
            else:
                witv = out

    if method == "def":
        return DecisionReport(defv, defv, None, None)
    if method == "witness":
        return DecisionReport(witv, None, witv, witness)

    if witv is None:
        log.warning("witness route inconclusive (%s); reporting definitional verdict", werr)
        return DecisionReport(defv, defv, None, None, witness_error=werr)
    if witv.status is defv.status:
        return DecisionReport(defv, defv, witv, witness)
    if abs(defv.margin) <= 10.0 * tol:
        combined = Verdict(status=Status.BOUNDARY, margin=defv.margin,
                           method=Method.DEFINITIONAL, tol=tol,
                           certificate=witv.certificate)
        log.warning("routes disagree inside the boundary band: margin=%.3e", defv.margin)
        return DecisionReport(combined, defv, witv, witness)
    log.warning("routes disagree outside the boundary band: margin=%.3e, witness says %s",
                defv.margin, witv.status.value)
    return DecisionReport(defv, defv, witv, witness)
