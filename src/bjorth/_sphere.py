"""Projected-gradient descent on the unit sphere, used by the sup-inf
maximizer (minimax.lhs_sup_inf), which computes the left side of the minimax
identity independently of the distance solver.

Objectives are smooth almost everywhere but can develop kinks (e.g. where a
denominator vector vanishes), so the loop is a plain descent with
backtracking, a stall detector and a couple of seeded random perturbations
as a derivative-free fallback.  Everything is deterministic for a fixed
seed schedule; the best candidate wins, ties broken by lowest restart index.
"""

from __future__ import annotations

import numpy as np


def _project_tangent(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    # tangent space of the real unit sphere underlying the (possibly complex) one
    return g - np.real(np.vdot(x, g)) * x


def sphere_descend(fg, x0: np.ndarray, *, max_iter: int = 300, rng=None,
                   stop_below: float = -np.inf):
    """Minimize fg over the unit sphere starting from x0.

    Parameters
    ----------
    fg : callable
        x -> (value, euclidean_gradient).  For complex x the gradient is the
        real-manifold one (twice the Wirtinger derivative in conj(x)).
    x0 : ndarray
        Start point; normalized here.
    rng : numpy Generator or None
        Source for the stall-perturbation fallback.  None disables it.
    stop_below : float
        Early exit once the value drops below this bound.

    Returns
    -------
    (value, x) : best point seen.
    """
    x = np.array(x0, copy=True)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ValueError("zero start vector")
    x = x / nx
    f, g = fg(x)
    best_f, best_x = f, x.copy()
    step = 1.0
    no_progress = 0
    perturbs = 0
    for _ in range(max_iter):
        if best_f <= stop_below:
            break
        gt = _project_tangent(g, x)
        gnorm = float(np.linalg.norm(gt))
        scale = 1.0 + abs(f)
        if gnorm <= 1e-10 * scale:
            if rng is not None and perturbs < 2:
                perturbs += 1
                noise = rng.standard_normal(x.shape)
                if np.iscomplexobj(x):
                    noise = noise + 1j * rng.standard_normal(x.shape)
                x = x + 1e-3 * noise
                x = x / np.linalg.norm(x)
                f, g = fg(x)
                if f < best_f:
                    best_f, best_x = f, x.copy()
                continue
            break
        step = min(step * 2.0, 1e3 / max(gnorm, 1e-300))
        accepted = False
        for _ in range(40):
            cand = x - step * gt
            cand = cand / np.linalg.norm(cand)
            fc, gc = fg(cand)
            if fc < f - 1e-4 * step * gnorm * gnorm:
                improvement = f - fc
                x, f, g = cand, fc, gc
                accepted = True
                break
            step *= 0.5
        if accepted:
            if f < best_f:
                best_f, best_x = f, x.copy()
            no_progress = no_progress + 1 if improvement <= 1e-15 * scale else 0
        else:
            no_progress += 1
        if no_progress >= 3:
            break
    return best_f, best_x


def multistart_minimize(fg, dim: int, *, complex_field: bool, restarts: int,
                        seed: int, det_starts=(), max_iter: int = 300,
                        stop_below: float = -np.inf):
    """Run sphere_descend from deterministic starts followed by seeded random ones.

    Returns (value, x, starts_used) of the best run; ties go to the earliest
    start.
    """
    best_f, best_x = np.inf, None
    idx = 0
    for s in det_starts:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed & (2**64 - 1), idx])))
        f, x = sphere_descend(fg, s, max_iter=max_iter, rng=rng, stop_below=stop_below)
        if f < best_f:
            best_f, best_x = f, x
        idx += 1
        if best_f <= stop_below:
            return best_f, best_x, idx
    for _ in range(restarts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed & (2**64 - 1), idx])))
        x0 = rng.standard_normal(dim)
        if complex_field:
            x0 = x0 + 1j * rng.standard_normal(dim)
        f, x = sphere_descend(fg, x0, max_iter=max_iter, rng=rng, stop_below=stop_below)
        if f < best_f:
            best_f, best_x = f, x
        idx += 1
        if best_f <= stop_below:
            break
    return best_f, best_x, idx
