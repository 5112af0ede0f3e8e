"""Independent reference computations used by the tests.

Nothing here touches the package's own numerical kernels: norms come from
power iteration or numpy/scipy, minima from dense lambda grids evaluated
through explicit scalar formulas.  Grid minima upper-bound the true infimum,
and sit within (lattice pitch) * (Lipschitz constant) of it whenever the
minimizer lies inside the searched box, which each caller guarantees by
construction.
"""

import numpy as np
from scipy.optimize import linprog


def power_iteration_norm(arr: np.ndarray, iters: int = 1_000_000,
                         seed: int = 0) -> float:
    """Largest singular value via power iteration on the Gram matrix."""
    arr = np.asarray(arr)
    g = arr.conj().T @ arr
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal(g.shape[0])
    if np.iscomplexobj(g):
        x = x + 1j * rng.standard_normal(g.shape[0])
    nx = np.linalg.norm(x)
    if nx == 0.0 or np.linalg.norm(g) == 0.0:
        return 0.0
    x = x / nx
    for _ in range(iters):
        y = g @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
    lam = float(np.real(np.vdot(x, g @ x)))
    return float(np.sqrt(max(lam, 0.0)))


def sigma_max_2x2(g11, g22, g12):
    """Top singular value from the 2x2 Gram entries (vectorized)."""
    s = 0.5 * (g11 + g22)
    d = 0.5 * (g11 - g22)
    return np.sqrt(np.maximum(s + np.sqrt(d * d + np.abs(g12) ** 2), 0.0))


def vector_grid_min(u: np.ndarray, v: np.ndarray, radius: float,
                    step: float = 1e-3, complex_grid: bool = True):
    """min over a lambda lattice of ||u + lambda v||, by the norm expansion.

    ||u + lambda v||^2 = ||u||^2 + 2 Re(conj(lambda) <u,v>) + |lambda|^2 ||v||^2
    with <u,v> linear in u.  Returns (value, lambda) at the best lattice point.
    """
    uu = float(np.real(np.vdot(u, u)))
    vv = float(np.real(np.vdot(v, v)))
    c = complex(np.vdot(v, u))          # <u, v>
    ts = np.arange(-radius, radius + step / 2, step)
    if not complex_grid:
        f2 = uu + 2.0 * ts * c.real + ts * ts * vv
        k = int(np.argmin(f2))
        return float(np.sqrt(max(f2[k], 0.0))), float(ts[k])
    best_val, best_lam = np.inf, 0.0
    for im in ts:                        # row-wise to bound memory
        lam = ts + 1j * im
        f2 = uu + 2.0 * (np.conj(lam) * c).real + (lam.real ** 2 + lam.imag ** 2) * vv
        k = int(np.argmin(f2))
        if f2[k] < best_val:
            best_val, best_lam = float(f2[k]), complex(lam[k])
    return float(np.sqrt(max(best_val, 0.0))), best_lam


def _pencil_grams(a: np.ndarray, b: np.ndarray):
    # ||A + lambda B||^2 needs G(lambda) = A*A + conj(l) B*A + l A*B + |l|^2 B*B
    return (a.conj().T @ a, b.conj().T @ a, a.conj().T @ b, b.conj().T @ b)


def pencil_grid_min_2x2(a: np.ndarray, b: np.ndarray, radius: float,
                        step: float = 1e-3, complex_grid: bool = True):
    """min over a lambda lattice of ||A + lambda B|| for 2x2 matrices.

    Every Gram entry is a quadratic scalar polynomial in lambda, so whole
    grid rows evaluate through the closed 2x2 top-singular-value formula.
    """
    gaa, gba, gab, gbb = _pencil_grams(a, b)
    ts = np.arange(-radius, radius + step / 2, step)

    def row(lam):
        al = np.conj(lam)
        r2 = lam.real ** 2 + lam.imag ** 2
        g11 = (gaa[0, 0] + al * gba[0, 0] + lam * gab[0, 0] + r2 * gbb[0, 0]).real
        g22 = (gaa[1, 1] + al * gba[1, 1] + lam * gab[1, 1] + r2 * gbb[1, 1]).real
        g12 = gaa[0, 1] + al * gba[0, 1] + lam * gab[0, 1] + r2 * gbb[0, 1]
        return sigma_max_2x2(g11, g22, g12)

    if not complex_grid:
        sig = row(ts.astype(complex))
        k = int(np.argmin(sig))
        return float(sig[k]), float(ts[k])
    best_val, best_lam = np.inf, 0.0
    for im in ts:
        lam = ts + 1j * im
        sig = row(lam)
        k = int(np.argmin(sig))
        if sig[k] < best_val:
            best_val, best_lam = float(sig[k]), complex(lam[k])
    return best_val, best_lam


def pencil_grid_min_eigh(a: np.ndarray, b: np.ndarray, radius: float,
                         step: float = 1e-3):
    """Real-axis lattice minimum of ||A + t B|| via batched eigvalsh."""
    ts = np.arange(-radius, radius + step / 2, step)
    pencils = a[None, :, :] + ts[:, None, None] * b[None, :, :]
    grams = np.einsum("kji,kjl->kil", pencils.conj(), pencils)
    w = np.linalg.eigvalsh(grams)
    sig = np.sqrt(np.maximum(w[:, -1], 0.0))
    k = int(np.argmin(sig))
    return float(sig[k]), float(ts[k])


def min_enclosing_circle_radius(points) -> float:
    """Radius of the smallest disk holding the complex points, by brute force.

    The smallest disk is fixed by two points (a diameter) or three (a
    circumcircle); this returns the smallest such candidate that holds
    every point, with a 1e-12 relative slack for rounding.
    """
    pts = [complex(p) for p in points]
    if len(pts) == 1:
        return 0.0
    scale = max(abs(p) for p in pts)
    cands = []
    for i, p in enumerate(pts):
        for j in range(i + 1, len(pts)):
            q = pts[j]
            cands.append(((p + q) / 2, abs(p - q) / 2))
            for s in pts[j + 1:]:
                # circumcenter: |c - p| = |c - q| = |c - s| solved as two linear equations
                m = np.array([[2 * (q - p).real, 2 * (q - p).imag],
                              [2 * (s - p).real, 2 * (s - p).imag]])
                if abs(np.linalg.det(m)) <= 1e-12 * max(scale, 1e-300) ** 2:
                    continue
                rhs = [abs(q) ** 2 - abs(p) ** 2, abs(s) ** 2 - abs(p) ** 2]
                cx, cy = np.linalg.solve(m, rhs)
                c = complex(cx, cy)
                cands.append((c, abs(c - p)))
    return min(r for c, r in cands
               if all(abs(p - c) <= r + 1e-12 * scale for p in pts))


def zero_in_hull(points: np.ndarray) -> bool:
    """0 in conv(points) for complex points, by LP feasibility."""
    pts = np.asarray(points, dtype=complex)
    m = len(pts)
    a_eq = np.vstack([pts.real, pts.imag, np.ones(m)])
    res = linprog(c=np.zeros(m), A_eq=a_eq, b_eq=[0.0, 0.0, 1.0],
                  bounds=[(0, None)] * m, method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"hull LP ended with solver status {res.status}")


def haar_unitary(n: int, seed: int, complex_field: bool = True) -> np.ndarray:
    """Haar-ish unitary from the QR of a Ginibre draw (phase-fixed)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    z = rng.standard_normal((n, n))
    if complex_field:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def seeded(n: int, seed: int, complex_field: bool = True) -> np.ndarray:
    """Deterministic n x n standard-normal test instance."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((n, n))
    if complex_field:
        x = x + 1j * rng.standard_normal((n, n))
    return x
