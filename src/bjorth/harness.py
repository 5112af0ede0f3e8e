"""Randomized evaluation harness: seeded generators, suite runner, reports.

Every random draw descends from a user seed through explicit SeedSequence
spawning (seed, dimension, trial index, stream index), so any run, any
single trial, and any failure is exactly reproducible from the report alone.
Three sub-suites exercise the package:

  minimax          random pairs, both sides of the minimax identity
  agreement        random pairs, definitional vs witness decisions
  witness_quality  constructed orthogonal pairs, witness residuals

Wall-clock numbers live under the separate top-level key "runtimes" so that
reports from identical configurations compare equal after dropping that key.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (SCHEMA_VERSION, Field, InputError, Matrix, inner, operator_norm,
                   top_singular_subspace)

_SEED_MASK = 2**64 - 1

# stream indices reserved per sub-suite so their draws never overlap
_STREAM = {"minimax": 0, "agreement": 1, "witness_quality": 2}


def _field_code(field: Field) -> int:
    return 0 if field is Field.REAL else 1


def gen_ginibre(n: int, seed: int, field: Field = Field.COMPLEX) -> Matrix:
    """n x n matrix with iid standard Gaussian entries (complex: unit variance).

    Deterministic in (n, seed, field); distinct arguments give independent
    Philox streams.
    """
    if n < 1:
        raise InputError(f"dimension must be positive, got {n}")
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed & _SEED_MASK, n, _field_code(field)])))
    x = rng.standard_normal((n, n))
    if field is Field.COMPLEX:
        x = (x + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return Matrix(field, x)


def gen_orthogonal_pair(n: int, seed: int, field: Field = Field.COMPLEX):
    """Random pair (A, B) with A orthogonal to B by construction.

    B starts from the Ginibre draw at seed+1 and gets a rank-one correction
    so that a top singular vector x0 of A satisfies <B x0, A x0> = 0; x0 then
    witnesses the orthogonality exactly (up to roundoff).  A, the Ginibre
    draw at seed, has Gaussian entries and so is never zero.
    """
    if n < 2:
        raise InputError(f"orthogonal pairs need dimension at least 2, got {n}")
    a = gen_ginibre(n, seed, field)
    sd = top_singular_subspace(a)
    bp = gen_ginibre(n, seed + 1, field)
    x0 = sd.top_subspace[0].data
    ax0 = a.data @ x0
    coef = inner(bp.data @ x0, ax0) / (sd.op_norm ** 2)
    b = Matrix(field, bp.data - coef * np.outer(ax0, x0.conj()))
    return a, b


def trial_seed(seed: int, dim: int, trial: int, stream: int) -> int:
    """Derived 64-bit seed for one (dimension, trial, stream) cell."""
    ss = np.random.SeedSequence([seed & _SEED_MASK, dim, trial, stream])
    return int(ss.generate_state(1, np.uint64)[0])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Tolerances:
    """Pass/fail thresholds used by the suite, each a positive finite number."""

    decision_tol: float = 1e-7
    gap_tol: float = 1e-4
    witness_eps: float = 1e-6

    def __post_init__(self):
        for name, value in self.to_json_dict().items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 < value < math.inf):
                raise InputError(f"{name} must be a positive finite number, got {value!r}")

    def to_json_dict(self) -> dict:
        return {"decision_tol": self.decision_tol, "gap_tol": self.gap_tol,
                "witness_eps": self.witness_eps}


@dataclass(frozen=True)
class SuiteConfig:
    dims: tuple = (2, 3, 4, 5, 6)
    trials_per_dim: int = 40
    seed: int = 0
    field: Field = Field.COMPLEX
    tolerances: Tolerances = dc_field(default_factory=Tolerances)

    def __post_init__(self):
        if not isinstance(self.dims, (list, tuple)) or not all(map(_is_int, self.dims)):
            raise InputError(f"dims must be a list of integers, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims or any(d < 2 for d in self.dims):
            raise InputError("suite dimensions must all be at least 2")
        if not _is_int(self.trials_per_dim) or self.trials_per_dim < 1:
            raise InputError(f"trials_per_dim must be a positive integer, "
                             f"got {self.trials_per_dim!r}")
        if not _is_int(self.seed):
            raise InputError(f"seed must be an integer, got {self.seed!r}")

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "trials_per_dim": self.trials_per_dim,
            "seed": self.seed,
            "field": self.field.value,
            "tolerances": self.tolerances.to_json_dict(),
        }


def _pair_for(cfg: SuiteConfig, dim: int, trial: int, suite: str):
    ts = trial_seed(cfg.seed, dim, trial, _STREAM[suite])
    a = gen_ginibre(dim, ts, cfg.field)
    b = gen_ginibre(dim, (ts + 1) & _SEED_MASK, cfg.field)
    return ts, a, b


# Each function below imports the solver modules it runs, so that
# generating matrices (`bjorth gen`) and `save_report` load only core.


def _minimax_trial(cfg: SuiteConfig, dim: int, trial: int):
    from .minimax import minimax_report
    ts, a, b = _pair_for(cfg, dim, trial, "minimax")
    rec = {"suite": "minimax", "dim": dim, "trial": trial, "seed": ts}
    try:
        rep = minimax_report(a, b, gap_tol=cfg.tolerances.gap_tol)
    except Exception as exc:   # a failed trial must not sink the suite
        return rec | {"error": str(exc)}, (a, b, f"minimax raised: {exc}")
    rec |= {"lhs": rep.lhs_value, "rhs": rep.rhs_value, "gap": rep.gap,
            "rel_gap": rep.rel_gap, "restarts_used": rep.restarts_used,
            "evaluations": rep.evaluations}
    bad = None
    if rep.restart_starved or rep.budget_limited:
        bad = (a, b, f"duality gap {rep.rel_gap:.3e} above {cfg.tolerances.gap_tol:.1e}")
    return rec, bad


def _agreement_trial(cfg: SuiteConfig, dim: int, trial: int):
    from .decision import Status, decide
    ts, a, b = _pair_for(cfg, dim, trial, "agreement")
    tols = cfg.tolerances
    rec = {"suite": "agreement", "dim": dim, "trial": trial, "seed": ts}
    try:
        rep = decide(a, b, method="both", tol=tols.decision_tol)
    except Exception as exc:
        return rec | {"error": str(exc)}, (a, b, f"decide raised: {exc}")
    margin = rep.definitional.margin
    boundary = rep.verdict.status is Status.BOUNDARY
    agree = (rep.witness_verdict is not None
             and rep.witness_verdict.status is rep.definitional.status)
    rec |= {"verdict": rep.verdict.status.value, "margin": margin,
            "routes_agree": agree, "boundary": boundary,
            "witness_ip_residual":
                rep.witness.ip_residual if rep.witness is not None else None}
    bad = None
    if rep.witness_error is not None:
        bad = (a, b, f"witness route inconclusive: {rep.witness_error}")
    elif not agree and not boundary:
        bad = (a, b, f"route disagreement outside band, margin {margin:.3e}")
    return rec, bad


def _witness_quality_trial(cfg: SuiteConfig, dim: int, trial: int):
    from .decision import Witness, find_witness
    ts = trial_seed(cfg.seed, dim, trial, _STREAM["witness_quality"])
    a, b = gen_orthogonal_pair(dim, ts, cfg.field)
    tols = cfg.tolerances
    rec = {"suite": "witness_quality", "dim": dim, "trial": trial, "seed": ts}
    sigma_a = operator_norm(a)
    sigma_ab = sigma_a * operator_norm(b)
    try:
        out = find_witness(a, b)
    except Exception as exc:
        return rec | {"error": str(exc)}, (a, b, f"find_witness raised: {exc}")
    if not isinstance(out, Witness):
        rec |= {"verdict": out.status.value}
        return rec, (a, b, "constructed orthogonal pair judged NOT_ORTHOGONAL")
    nr = out.norm_residual / sigma_a if sigma_a > 0 else out.norm_residual
    ir = out.ip_residual / sigma_ab if sigma_ab > 0 else out.ip_residual
    rec |= {"verdict": "ORTHOGONAL", "norm_residual_rel": nr, "ip_residual_rel": ir}
    bad = None
    if nr > tols.witness_eps or ir > tols.witness_eps:
        bad = (a, b, f"witness residuals {nr:.3e}/{ir:.3e} above {tols.witness_eps:.1e}")
    return rec, bad


def run_suite(cfg: SuiteConfig) -> dict:
    """Run all three sub-suites and return the JSON-ready report dict.

    The report is deterministic for a fixed config except for the "runtimes"
    key.  Failed trials are embedded in "failures" with both matrices
    serialized, so each one can be replayed directly.
    """
    import logging
    trials = {"minimax": _minimax_trial, "agreement": _agreement_trial,
              "witness_quality": _witness_quality_trial}
    records = []
    failures = []
    runtimes = {}
    for suite, fn in trials.items():
        t0 = time.perf_counter()
        for dim in cfg.dims:
            logging.getLogger("bjorth").info("suite %s dim %d", suite, dim)
            for trial in range(cfg.trials_per_dim):
                rec, bad = fn(cfg, dim, trial)
                records.append(rec)
                if bad is not None:
                    a, b, reason = bad
                    failures.append({"suite": suite, "dim": dim, "trial": trial,
                                     "reason": reason, "a": a.to_json_dict(),
                                     "b": b.to_json_dict()})
        runtimes[suite] = time.perf_counter() - t0
    runtimes["total"] = sum(runtimes.values())

    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_json_dict(),
        "records": records,
        "aggregates": _aggregate(records),
        "failures": failures,
        "runtimes": runtimes,
    }


def _aggregate(records: list) -> dict:
    mm = [r for r in records if r["suite"] == "minimax" and "rel_gap" in r]
    ag = [r for r in records if r["suite"] == "agreement"]
    wq = [r for r in records if r["suite"] == "witness_quality"]
    gaps = [r["rel_gap"] for r in mm]
    out = {
        "minimax": {
            "trials": len(mm),
            "max_rel_gap": max(gaps) if gaps else None,
            "median_rel_gap": float(np.median(gaps)) if gaps else None,
        },
        "agreement": {
            "trials": len(ag),
            "orthogonal": sum(r.get("verdict") == "ORTHOGONAL" for r in ag),
            "not_orthogonal": sum(r.get("verdict") == "NOT_ORTHOGONAL" for r in ag),
            "boundary": sum(r.get("verdict") == "BOUNDARY" for r in ag),
            "agreeing": sum(bool(r.get("routes_agree")) for r in ag),
        },
        "witness_quality": {
            "trials": len(wq),
            "max_norm_residual_rel": max((r["norm_residual_rel"] for r in wq
                                          if "norm_residual_rel" in r), default=None),
            "max_ip_residual_rel": max((r["ip_residual_rel"] for r in wq
                                        if "ip_residual_rel" in r), default=None),
        },
    }
    return out


def save_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


_CSV_COLUMNS = ("dim", "trial", "suite", "verdict", "margin", "gap",
                "witness_residual")


def save_csv(report: dict, path: str) -> None:
    """Flat per-trial table; cells that do not apply to a sub-suite stay empty."""
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for r in report["records"]:
            residual = r.get("ip_residual_rel", r.get("witness_ip_residual"))
            w.writerow([
                r["dim"], r["trial"], r["suite"],
                r.get("verdict", ""),
                r.get("margin", ""),
                r.get("gap", ""),
                "" if residual is None else residual,
            ])
