"""Acceptance battery: the eight release criteria, one test and one line each.

Each test prints a live `criterion N PASS/FAIL: ...` line (bypassing capture)
so a full run reads as a checklist, then asserts the criterion.
"""

import json
import math
import time
from functools import lru_cache

import numpy as np

import _oracles
from bjorth import (
    Field,
    Matrix,
    SuiteConfig,
    Vector,
    Witness,
    WitnessSearchError,
    decide,
    epsilon_witness,
    find_witness,
    gen_ginibre,
    gen_orthogonal_pair,
    global_inf_lambda,
    inner_inf,
    lhs_sup_inf,
    limit_lemma_check,
    operator_norm,
    rhs_inf_sup,
    run_suite,
    vector_bj_check,
)

DIMS = (2, 3, 4, 5, 6)
FIELDS = (Field.COMPLEX, Field.REAL)


def _fmt(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _unit(rng, n, complex_field):
    x = rng.standard_normal(n)
    if complex_field:
        x = x + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


@lru_cache(maxsize=1)
def constructed_results():
    """100 seeded orthogonal-by-construction pairs with their witness output."""
    out = []
    k = 0
    for fld in FIELDS:
        for n in DIMS:
            for _ in range(10):
                a, b = gen_orthogonal_pair(n, 7000 + k, fld)
                try:
                    w = find_witness(a, b)
                except WitnessSearchError:
                    w = None
                out.append((a, b, w))
                k += 1
    return out


def test_criterion_1_minimax_statistics(announce):
    # 200 complex Ginibre pairs, 40 per dimension in 2..6, 50 restarts:
    # weak duality within 1e-9 and relative gap at most 1e-4, all pairs,
    # inside a five minute budget
    t0 = time.perf_counter()
    duality_ok = gap_ok = 0
    max_rel = 0.0
    idx = 0
    for n in DIMS:
        for _ in range(40):
            a = gen_ginibre(n, 10_000 + 2 * idx)
            b = gen_ginibre(n, 10_001 + 2 * idx)
            idx += 1
            rhs = rhs_inf_sup(a, b)
            scale = max(rhs.value, 1.0)
            lhs = lhs_sup_inf(a, b, restarts=50, seed=idx,
                              lambda_hint=rhs.lambda_star,
                              stop_at=rhs.value - 1e-10 * scale)
            rel = (rhs.value - lhs.value) / scale
            duality_ok += lhs.value <= rhs.value + 1e-9
            gap_ok += rel <= 1e-4
            max_rel = max(max_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = duality_ok == 200 and gap_ok == 200 and elapsed <= 300.0
    announce(f"criterion 1 {_fmt(ok)}: weak duality {duality_ok}/200, "
             f"rel gap <= 1e-4 {gap_ok}/200 (max {max_rel:.2e}), {elapsed:.0f}s")
    assert ok


def test_criterion_2_route_agreement(announce):
    # witness route succeeds with tight residuals on all 100 constructed
    # pairs; on 500 random pairs the two routes agree whenever the margin is
    # decisively nonzero
    wit_ok = 0
    for a, b, w in constructed_results():
        if isinstance(w, Witness) \
                and w.norm_residual <= 1e-6 * operator_norm(a) \
                and w.ip_residual <= 1e-6 * operator_norm(a) * operator_norm(b):
            wit_ok += 1
    agree = decisive = 0
    for k in range(500):
        n = 2 + k % 5
        a = gen_ginibre(n, 90_000 + 2 * k)
        b = gen_ginibre(n, 90_001 + 2 * k)
        rep = decide(a, b)
        if abs(rep.definitional.margin) > 1e-6:
            decisive += 1
            agree += (rep.witness_error is None
                      and rep.witness_verdict is not None
                      and rep.witness_verdict.status is rep.definitional.status)
    ok = wit_ok == 100 and agree == decisive
    announce(f"criterion 2 {_fmt(ok)}: constructed witnesses {wit_ok}/100, "
             f"route agreement {agree}/{decisive} decisive of 500")
    assert ok


def test_criterion_3_witness_grid_validation(announce):
    # every witness of criterion 2 survives an independent 1000-point
    # lambda grid: ||(A + lambda B) x|| >= ||A|| - 1e-5 across the grid
    checked = survived = 0
    for a, b, w in constructed_results():
        if not isinstance(w, Witness):
            continue
        checked += 1
        u = a.data @ w.x.data
        v = b.data @ w.x.data
        uu = float(np.vdot(u, u).real)
        vv = float(np.vdot(v, v).real)
        c = complex(np.vdot(v, u))
        radius = 1.1 * math.sqrt(uu / vv) if vv > 0 else 1.0
        if a.field is Field.COMPLEX:
            radii = np.linspace(0.0, radius, 25)
            angles = np.exp(2j * np.pi * np.arange(40) / 40)
            lams = np.outer(radii, angles).ravel()
        else:
            lams = np.linspace(-radius, radius, 1000).astype(complex)
        f2 = (uu + 2.0 * (np.conj(lams) * c).real
              + (lams.real ** 2 + lams.imag ** 2) * vv)
        if math.sqrt(max(float(f2.min()), 0.0)) >= operator_norm(a) - 1e-5:
            survived += 1
    ok = checked == 100 and survived == 100
    announce(f"criterion 3 {_fmt(ok)}: grid-validated witnesses "
             f"{survived}/{checked} of 100 expected")
    assert ok


def test_criterion_4_epsilon_ladder(announce):
    # 20 constructed pairs, eps descending through 1e-2..1e-5: a witness at
    # every rung with ip_residual <= eps
    pairs_ok = 0
    k = 0
    for fld in FIELDS:
        for n in DIMS:
            for _ in range(2):
                a, b = gen_orthogonal_pair(n, 40_000 + k, fld)
                k += 1
                good = True
                for eps in (1e-2, 1e-3, 1e-4, 1e-5):
                    out = epsilon_witness(a, b, eps)
                    good = good and isinstance(out, Witness) and out.ip_residual <= eps
                pairs_ok += good
    ok = pairs_ok == 20
    announce(f"criterion 4 {_fmt(ok)}: full eps ladder held for {pairs_ok}/20 pairs")
    assert ok


def test_criterion_5_limit_lemma(announce):
    # the sampled nonnegativity test rejects every visibly nonzero scalar at
    # magnitudes 1e-6, 1, 1e6 and accepts zero
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(55)))
    rejected = 0
    for _ in range(100):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(math.cos(phase), math.sin(phase))
        if all(limit_lemma_check(s * z, 1.0) is False for s in (1e-6, 1.0, 1e6)):
            rejected += 1
    zero_ok = limit_lemma_check(0.0, 1.0) is True
    ok = rejected == 100 and zero_ok
    announce(f"criterion 5 {_fmt(ok)}: rejected {rejected}/100 nonzero scalars, "
             f"accepted zero: {zero_ok}")
    assert ok


def test_criterion_6_vector_equivalence(announce):
    # 1000 vector pairs (half raw, half orthogonalized): the norm criterion
    # at tol 1e-8 and the inner-product criterion at 1e-6 never disagree
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(66)))
    disagreements = 0
    for k in range(1000):
        complex_field = k % 4 < 2
        n = 1 + k % 6
        u = _unit(rng, n, complex_field)
        v = _unit(rng, n, complex_field)
        if k % 2 == 1 and n > 1:
            v = v - np.vdot(u, v) * u
            nv = np.linalg.norm(v)
            if nv > 0:
                v = v / nv
        fld = Field.COMPLEX if complex_field else Field.REAL
        uu = Vector(fld, u.astype(fld.dtype))
        vv = Vector(fld, v.astype(fld.dtype))
        norm_ok, ip = vector_bj_check(uu, vv, tol=1e-8)
        ip_ok = ip <= 1e-6 * uu.norm() * vv.norm()
        disagreements += norm_ok != ip_ok
    ok = disagreements == 0
    announce(f"criterion 6 {_fmt(ok)}: {disagreements} disagreements in 1000 pairs")
    assert ok


def test_criterion_7_grid_oracle_battery(announce):
    # closed-form and global line minimizers against brute-force lambda
    # grids at pitch 1e-3: agreement within 1e-3, 500 instances each
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
    inner_bad = 0
    for k in range(500):
        complex_field = k % 2 == 0
        n = 2 + k % 5
        u = _unit(rng, n, complex_field)
        v = _unit(rng, n, complex_field)
        ref, _ = _oracles.vector_grid_min(u, v, radius=1.1, step=1e-3,
                                          complex_grid=complex_field)
        fld = Field.COMPLEX if complex_field else Field.REAL
        res = inner_inf(Vector(fld, u.astype(fld.dtype)),
                        Vector(fld, v.astype(fld.dtype)))
        if not (res.value <= ref + 1e-9 and ref - res.value <= 1e-3):
            inner_bad += 1

    global_bad = 0
    for k in range(500):
        complex_field = k % 2 == 0
        n = 2 if complex_field else 2 + k % 2
        a_arr = _oracles.seeded(n, 77_000 + 2 * k, complex_field)
        b_arr = _oracles.seeded(n, 77_001 + 2 * k, complex_field)
        # scale ||A|| into [0.1, 0.25] and ||B|| to 1 so the minimizer sits
        # well inside the searched box |lambda| <= 0.55
        target = 0.1 + 0.15 * (k % 16) / 15.0
        a_arr = a_arr * (target / np.linalg.norm(a_arr, 2))
        b_arr = b_arr / np.linalg.norm(b_arr, 2)
        if complex_field:
            ref, _ = _oracles.pencil_grid_min_2x2(a_arr, b_arr, radius=0.55,
                                                  step=1e-3, complex_grid=True)
        else:
            ref, _ = _oracles.pencil_grid_min_eigh(a_arr, b_arr, radius=0.55,
                                                   step=1e-3)
        fld = Field.COMPLEX if complex_field else Field.REAL
        res = global_inf_lambda(Matrix(fld, a_arr), Matrix(fld, b_arr))
        if not (res.value <= ref + 1e-9 and ref - res.value <= 1e-3):
            global_bad += 1

    ok = inner_bad == 0 and global_bad == 0
    announce(f"criterion 7 {_fmt(ok)}: grid mismatches "
             f"{inner_bad}/500 vector, {global_bad}/500 matrix")
    assert ok


def test_criterion_8_suite_determinism(announce):
    # two full default-config suite runs are byte-identical once the
    # wall-clock section is dropped, and the suite itself is clean
    cfg = SuiteConfig()
    one = run_suite(cfg)
    two = run_suite(cfg)

    def frozen(rep):
        return json.dumps({k: v for k, v in rep.items() if k != "runtimes"},
                          sort_keys=True).encode()

    identical = frozen(one) == frozen(two)
    clean = not one["failures"]
    ok = identical and clean
    announce(f"criterion 8 {_fmt(ok)}: byte-identical reports: {identical}, "
             f"failures: {len(one['failures'])} in {len(one['records'])} records")
    assert ok
