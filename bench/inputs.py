"""Seeded input generators and independent oracles for the benchmark.

Inputs are built here with numpy alone, never with the package's own
generators, so no change to the package can alter what the benchmark feeds
it.  Every draw descends from (seed, workload code, request index, stream),
so the same seed gives the same inputs whatever the pool size.

The oracles use numpy's LAPACK-backed SVD and closed forms; none of them
calls into the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_MASK = 2**64 - 1


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & _MASK, *key])))


def ginibre(rng, n: int, complex_field: bool) -> np.ndarray:
    x = rng.standard_normal((n, n))
    if complex_field:
        x = (x + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    return x


def unitary(rng, n: int, complex_field: bool) -> np.ndarray:
    """Haar unitary (orthogonal for the real field) from a phase-fixed QR."""
    q, r = np.linalg.qr(ginibre(rng, n, complex_field))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------- oracles

def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def top_right_vector(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Top right singular vector and the relative gap sigma_1 - sigma_2."""
    _, s, vh = np.linalg.svd(a)
    gap = (s[0] - s[1]) / s[0] if len(s) > 1 and s[0] > 0 else 1.0
    return vh[0].conj(), float(gap)


def phi(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """inf over lambda of ||(A + lambda B) x|| for a unit x, in closed form."""
    u = a @ x
    v = b @ x
    uu = float(np.vdot(u, u).real)
    vv = float(np.vdot(v, v).real)
    if vv == 0.0:
        return math.sqrt(uu)
    c = np.vdot(v, u)
    return math.sqrt(max(uu - abs(c) ** 2 / vv, 0.0))


def pencil_upper(a: np.ndarray, b: np.ndarray) -> float:
    """Least ||A + lambda B|| over a fixed grid of lambda: an upper bound on
    inf over lambda of ||A + lambda B||.  The grid spans eight directions
    (two over the reals) and magnitudes 1 down to 1e-6 times ||A||/||B||."""
    nb = op_norm(b)
    if nb == 0.0:
        return op_norm(a)
    steps = 2 if not np.iscomplexobj(a) else 8
    dirs = np.exp(2j * np.pi * np.arange(steps) / steps)
    if steps == 2:
        dirs = dirs.real
    lams = np.outer(op_norm(a) / nb * 10.0 ** -np.arange(7), dirs).ravel()
    stack = a[None, :, :] + lams[:, None, None] * b[None, :, :]
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].min())


def min_enclosing_circle(points) -> tuple[complex, float]:
    """Smallest circle containing the complex points, by enumerating the
    circles through every pair (as a diameter) and every triple of points.

    With B = I and A normal, inf over lambda of ||A + lambda I|| is the
    radius of this circle around the eigenvalues of A.
    """
    pts = [complex(p) for p in points]
    scale = max(1.0, max(abs(p) for p in pts))
    slack = 1e-12 * scale

    def encloses(c, r):
        return all(abs(p - c) <= r + slack for p in pts)

    best = (pts[0], 0.0) if len(pts) == 1 else None
    for p, q in itertools.combinations(pts, 2):
        c = 0.5 * (p + q)
        r = abs(p - c)
        if (best is None or r < best[1]) and encloses(c, r):
            best = (c, r)
    for p, q, s in itertools.combinations(pts, 3):
        d = 2.0 * (p.real * (q.imag - s.imag) + q.real * (s.imag - p.imag)
                   + s.real * (p.imag - q.imag))
        if abs(d) <= 1e-14 * scale * scale:
            continue
        ux = (abs(p) ** 2 * (q.imag - s.imag) + abs(q) ** 2 * (s.imag - p.imag)
              + abs(s) ** 2 * (p.imag - q.imag)) / d
        uy = (abs(p) ** 2 * (s.real - q.real) + abs(q) ** 2 * (p.real - s.real)
              + abs(s) ** 2 * (q.real - p.real)) / d
        c = complex(ux, uy)
        r = abs(p - c)
        if (best is None or r < best[1]) and encloses(c, r):
            best = (c, r)
    return best


def witness_recheck(a: np.ndarray, b: np.ndarray, w, eps_bound: float) -> list:
    """From-scratch re-check of a returned Witness.

    Recomputes both residuals with numpy, compares them with the values the
    Witness reports, and requires both to lie within eps_bound.
    """
    out = []
    x = np.asarray(w.x.data)
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-10:
        out.append("witness vector is not unit length")
        return out
    sa = op_norm(a)
    u = a @ x
    v = b @ x
    norm_res = max(sa - float(np.linalg.norm(u)), 0.0)
    ip_res = abs(complex(np.vdot(v, u)))
    slack = 1e-12 * max(1.0, sa * op_norm(b))
    if abs(norm_res - w.norm_residual) > slack or abs(ip_res - w.ip_residual) > slack:
        out.append(f"witness residuals do not recompute: reported "
                   f"{w.norm_residual:.3e}/{w.ip_residual:.3e}, "
                   f"recomputed {norm_res:.3e}/{ip_res:.3e}")
    if max(norm_res, ip_res) > eps_bound + slack:
        out.append(f"witness residual {max(norm_res, ip_res):.3e} above {eps_bound:.3e}")
    return out


# --------------------------------------------------------------- generators

def random_pair(rng, n: int, complex_field: bool):
    return ginibre(rng, n, complex_field), ginibre(rng, n, complex_field)


def orthogonal_pair(rng, n: int, complex_field: bool):
    """Ginibre A scaled to ||A|| = 1 and B corrected by a rank-one term so
    that a top singular vector x0 of A has <B x0, A x0> = 0.  x0 is then an
    exact witness, so the pair is orthogonal by construction."""
    a = ginibre(rng, n, complex_field)
    a = a / op_norm(a)
    b = ginibre(rng, n, complex_field)
    x0, _ = top_right_vector(a)
    ax0 = a @ x0
    coef = np.vdot(ax0, b @ x0) / np.vdot(ax0, ax0).real
    b = b - coef * np.outer(ax0, x0.conj())
    return a, b


def normal_pencil(rng, n: int, orthogonal: bool):
    """A = U diag(ev) U* with max |ev| = 1, B = I, complex field.

    Orthogonal pencils put two antipodal eigenvalues, or three forming an
    acute triangle around 0, on the unit circle and the rest strictly
    inside; the minimal enclosing circle is then the unit circle centred at
    0.  Other pencils draw eigenvalues in the unit disk and put one on its
    boundary.  Returns (A, B, eigenvalues).
    """
    phase = rng.uniform(0.0, 2.0 * math.pi)
    if orthogonal:
        if n >= 4 and rng.random() < 0.5:
            # three points on the circle, every arc between them under a
            # half-turn, so the triangle is acute and contains 0
            gaps = np.array([1.0, 1.0, 1.0]) + rng.uniform(-0.3, 0.3, 3)
            gaps = gaps / gaps.sum() * 2.0 * math.pi
            angles = phase + np.concatenate([[0.0], np.cumsum(gaps[:2])])
            rim = np.exp(1j * angles)
        else:
            rim = np.exp(1j * phase) * np.array([1.0, -1.0])
        inner_n = n - len(rim)
        r = rng.uniform(0.1, 0.9, inner_n)
        inner_pts = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, inner_n))
        ev = np.concatenate([rim, inner_pts])
    else:
        r = np.sqrt(rng.uniform(0.0, 1.0, n))
        ev = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        ev[0] = np.exp(1j * phase)
        ev[1:] *= 0.98   # keep one eigenvalue alone on the unit circle
    u = unitary(rng, n, True)
    a = (u * ev) @ u.conj().T
    return a, np.eye(n, dtype=complex), ev


def kink_pair(rng, n: int, k: int, complex_field: bool, orthogonal: bool):
    """A with its top singular value 1 repeated k times, and B chosen so the
    compression C = V_k* B* A V_k is a prescribed matrix.

    Orthogonal pairs get a trace-zero C, so 0 (the mean of its eigenvalues)
    lies in the numerical range.  Other pairs get C = I + E with ||E|| <= 0.3,
    whose numerical range stays in the disk of radius 0.3 around 1.
    """
    sig = np.concatenate([np.ones(k), np.sort(rng.uniform(0.1, 0.9, n - k))[::-1]])
    u = unitary(rng, n, complex_field)
    v = unitary(rng, n, complex_field)
    a = (u * sig) @ v.conj().T
    uk, vk = u[:, :k], v[:, :k]
    e = ginibre(rng, k, complex_field)
    if orthogonal:
        target = e - (np.trace(e) / k) * np.eye(k)
    else:
        target = np.eye(k) + 0.3 * e / op_norm(e)
    b0 = ginibre(rng, n, complex_field)
    # U_k* B V_k must equal target*, which makes V_k* B* U_k = target
    b = b0 + uk @ (target.conj().T - uk.conj().T @ b0 @ vk) @ vk.conj().T
    return a, b
