"""The four benchmark workloads.

A workload builds a pool of requests from the seed at set-up, then serves
them one at a time.  A request is one user-level task made of one or more
operations (calls into the package's public functions).  The clock runs
only around those calls; every output is checked against an oracle or an
invariant between calls, with the clock stopped.

Calls go through module attributes (`decision.decide`, not a bound name),
so the traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import bjorth.decision as decision
import bjorth.lineopt as lineopt
import bjorth.minimax as minimax
from bjorth.core import Field, Matrix

import inputs as ip

CLOCK = time.perf_counter

# Fixed inputs of the reference kernel; they must never change (see below).
_REF_W = [complex(k, 1.0) for k in range(40)]
_REF_H = ip.ginibre(ip.rng_for(0, 0), 6, True)
_REF_H = _REF_H + _REF_H.conj().T


def reference_ms() -> float:
    """Wall time of a fixed kernel that uses no package code, in ms.

    A shared virtual machine can change speed by a third within seconds
    (seen on a 2-vCPU VM).  Timing this kernel just before each request and
    dividing tracks that change, so `request_ref` metrics count request
    time in units of this kernel.  It mixes scalar Python arithmetic with small
    numpy calls, like the package.  Changing it changes the unit.
    """
    t0 = CLOCK()
    z = 0j
    for _ in range(250):
        for w in _REF_W:
            z = z * 0.5 + w * (1.0 - 0.5j) - abs(w)
    for _ in range(150):
        np.linalg.eigvalsh(_REF_H)
        _REF_H @ _REF_H
    return (CLOCK() - t0) * 1e3


@dataclass
class Op:
    """One call into the package: its kind, wall time and check failures."""

    kind: str
    ms: float
    failures: list = field(default_factory=list)
    oracle_miss: bool | None = None   # set on distances checked against a closed form


def call(fn, *args, **kwargs):
    """Time one call; an exception is returned, not raised."""
    t0 = CLOCK()
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:   # a raising operation is a failed operation
        return exc, (CLOCK() - t0) * 1e3
    return res, (CLOCK() - t0) * 1e3


def raised(res) -> list:
    if isinstance(res, Exception):
        return [f"raised {type(res).__name__}: {res}"]
    return []


def field_of(complex_field: bool) -> Field:
    return Field.COMPLEX if complex_field else Field.REAL


DECIDE_BAND = 10 * lineopt.DEFAULT_TOL   # decide's boundary band at its default tol


def k1_oracle(a: np.ndarray, b: np.ndarray):
    """Oracle for `decide` on a pair whose top singular value is simple.

    Returns (expected status or None, whether BOUNDARY is acceptable).
    phi at the top singular vector is a lower bound on the distance; when it
    proves the margin lies inside decide's band, BOUNDARY is the specified
    answer and any status is accepted.  When a grid of lambda proves the
    margin lies below the band, the pair must be NOT_ORTHOGONAL.
    """
    v, gap = ip.top_right_vector(a)
    if gap < 1e-6:
        return None, False
    norm_a = ip.op_norm(a)
    if ip.phi(a, b, v) >= norm_a - DECIDE_BAND:
        return None, True
    if ip.pencil_upper(a, b) < norm_a - DECIDE_BAND:
        return "NOT_ORTHOGONAL", False
    return None, False


def check_decide(rep, expected, boundary_ok: bool = False) -> list:
    if isinstance(rep, Exception):
        return raised(rep)
    out = []
    status = rep.verdict.status.value
    if status == "BOUNDARY" and not boundary_ok:
        out.append(f"decide returned BOUNDARY (margin {rep.verdict.margin:.3e})")
    if rep.witness_error is not None:
        out.append(f"witness route inconclusive: {rep.witness_error}")
    defv, witv = rep.definitional, rep.witness_verdict
    if (status != "BOUNDARY" and defv is not None and witv is not None
            and defv.status is not witv.status):
        out.append(f"routes disagree outside the band: definitional "
                   f"{defv.status.value}, witness {witv.status.value}")
    if expected is not None and status != expected:
        out.append(f"verdict {status}, oracle {expected}")
    return out


def check_minimax(rep, a, b) -> list:
    if isinstance(rep, Exception):
        return raised(rep)
    out = []
    if rep.restart_starved:
        out.append(f"minimax_report restart_starved (rel_gap {rep.rel_gap:.3e})")
    if rep.budget_limited:
        out.append("minimax_report budget_limited")
    if rep.lhs_value > rep.rhs_value + 1e-9:
        out.append(f"weak duality broken: lhs {rep.lhs_value!r} > rhs {rep.rhs_value!r}")
    scale = max(1.0, rep.rhs_value)
    rhs_re = ip.op_norm(a + complex(rep.argmin_lambda) * b)
    if abs(rhs_re - rep.rhs_value) > 1e-9 * scale:
        out.append(f"rhs {rep.rhs_value!r} does not recompute at its lambda ({rhs_re!r})")
    lhs_re = ip.phi(a, b, np.asarray(rep.argmax_x.data))
    if abs(lhs_re - rep.lhs_value) > 1e-9 * scale:
        out.append(f"lhs {rep.lhs_value!r} does not recompute at its x ({lhs_re!r})")
    return out


def check_eps_witness(res, a, b, eps, must_exist: bool) -> list:
    """An eps-witness x must satisfy phi(x) > ||A|| - eps, recomputed here."""
    if isinstance(res, Exception):
        return raised(res)
    sa = ip.op_norm(a)
    if not hasattr(res, "norm_residual"):
        if must_exist:
            return [f"no eps-witness at eps={eps:g} on a constructed orthogonal pair "
                    f"(best {res.best_value!r}, threshold {res.threshold!r})"]
        best = ip.phi(a, b, np.asarray(res.best_x.data))
        if best > sa - eps:
            return [f"eps-witness search returned failure at a point that passes "
                    f"(phi {best!r} > {sa - eps!r})"]
        return []
    out = ip.witness_recheck(a, b, res, res.epsilon)
    val = ip.phi(a, b, np.asarray(res.x.data))
    if not val > sa - eps:
        out.append(f"eps-witness fails from scratch: phi {val!r} <= {sa - eps!r}")
    return out


def check_find_witness(res, a, b, orthogonal: bool) -> list:
    if isinstance(res, Exception):
        return raised(res)
    is_witness = hasattr(res, "norm_residual")
    if orthogonal and not is_witness:
        return [f"find_witness returned {res.status.value} on an orthogonal pair"]
    if not orthogonal and is_witness:
        return ["find_witness returned a Witness on a non-orthogonal pair"]
    if is_witness:
        return ip.witness_recheck(a, b, res, 1e-8 * ip.op_norm(a) * ip.op_norm(b))
    return []


# ---------------------------------------------------------------- workloads

class Workload:
    """Base: pool of requests built from the seed, served one at a time."""

    name = ""
    code = 0
    pool_size = 0
    # requests in one balanced pass over the workload's input mix; the counts
    # of the first pass must repeat exactly at one seed
    pass_len = 1

    timeout_s = 120

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.pool = []
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def generate(self) -> list:
        return [self.make(i) for i in range(self.pool_size)]

    def python(self, argv):
        """Run the interpreter on argv with the package on its path; returns
        (CompletedProcess or TimeoutExpired, wall ms)."""
        t0 = CLOCK()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=self.timeout_s)
        except subprocess.TimeoutExpired as exc:
            return exc, (CLOCK() - t0) * 1e3
        return proc, (CLOCK() - t0) * 1e3

    def warm_up(self, pool) -> None:
        rng = ip.rng_for(self.seed, self.code, 1 << 20)
        a, b = ip.random_pair(rng, 2, False)
        decision.decide(Matrix(Field.REAL, a), Matrix(Field.REAL, b), method="both")

    def after_setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def make(self, i: int):
        raise NotImplementedError

    def run(self, req) -> list:
        raise NotImplementedError


# generic: cells ordered so that a partial pass stays balanced across n and field
_CELLS = [(2, False), (6, True), (3, False), (5, True), (4, False),
          (2, True), (6, False), (3, True), (5, False), (4, True)]


class Generic(Workload):
    """Ginibre pairs at n = 2..6, both fields: decide, minimax_report and
    epsilon_witness(1e-3) on a random pair, and find_witness on a
    constructed orthogonal pair of the same cell."""

    name = "generic"
    code = 1
    pool_size = 40 * len(_CELLS)
    pass_len = len(_CELLS)

    def make(self, i):
        n, cplx = _CELLS[i % len(_CELLS)]
        rng = ip.rng_for(self.seed, self.code, i)
        a, b = ip.random_pair(rng, n, cplx)
        ao, bo = ip.orthogonal_pair(rng, n, cplx)
        f = field_of(cplx)
        return {"a": a, "b": b, "ao": ao, "bo": bo,
                "m": (Matrix(f, a), Matrix(f, b), Matrix(f, ao), Matrix(f, bo))}

    def run(self, req):
        a, b, ao, bo = req["a"], req["b"], req["ao"], req["bo"]
        ma, mb, mao, mbo = req["m"]
        ops = []
        rep, ms = call(decision.decide, ma, mb, method="both")
        ops.append(Op("decide", ms, check_decide(rep, *k1_oracle(a, b))))
        rep, ms = call(minimax.minimax_report, ma, mb)
        ops.append(Op("minimax", ms, check_minimax(rep, a, b)))
        res, ms = call(decision.epsilon_witness, ma, mb, 1e-3)
        ops.append(Op("eps_witness", ms, check_eps_witness(res, a, b, 1e-3, False)))
        res, ms = call(decision.find_witness, mao, mbo)
        ops.append(Op("witness", ms, check_find_witness(res, ao, bo, True)))
        return ops


_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)


class Structured(Workload):
    """Pairs with closed-form answers or kinks: a normal pencil (distance and
    decide against the minimal enclosing circle), a pair whose top singular
    value repeats k = 2..3 times (find_witness, minimax_report), and a
    constructed orthogonal pair on the eps ladder 1e-2..1e-5."""

    name = "structured"
    code = 2
    pool_size = 64
    pass_len = 4

    def make(self, i):
        rng = ip.rng_for(self.seed, self.code, i)
        n = 3 + i % 4
        normal_orth = (i // 4) % 2 == 1
        a, b, ev = ip.normal_pencil(rng, n, normal_orth)
        _, radius = ip.min_enclosing_circle(ev)
        k = 2 + (i // 2) % 2
        kn = max(n, k + 1)
        kink_cplx = i % 2 == 0
        kink_orth = (i // 8) % 2 == 0
        ka, kb = ip.kink_pair(rng, kn, k, kink_cplx, kink_orth)
        ln = 2 + i % 5
        l_cplx = (i // 5) % 2 == 0
        la, lb = ip.orthogonal_pair(rng, ln, l_cplx)
        fk, fl = field_of(kink_cplx), field_of(l_cplx)
        return {
            "normal": (a, b, radius, normal_orth, Matrix(Field.COMPLEX, a), Matrix(Field.COMPLEX, b)),
            "kink": (ka, kb, kink_orth, Matrix(fk, ka), Matrix(fk, kb)),
            "ladder": (la, lb, Matrix(fl, la), Matrix(fl, lb)),
        }

    def run(self, req):
        ops = []
        a, b, radius, orth, ma, mb = req["normal"]
        res, ms = call(lineopt.global_inf_lambda, ma, mb)
        fails = raised(res)
        miss = None
        if not fails:
            if res.budget_limited:
                fails.append("distance budget_limited")
            slack = lineopt.DEFAULT_TOL * max(1.0, ip.op_norm(a))
            miss = res.value > radius + slack
            if miss:
                fails.append(f"distance {res.value!r} above the enclosing-circle "
                             f"radius {radius!r}")
            elif res.value < radius - slack:
                fails.append(f"distance {res.value!r} below the enclosing-circle "
                             f"radius {radius!r}")
        ops.append(Op("distance", ms, fails, oracle_miss=miss))
        rep, ms = call(decision.decide, ma, mb, method="both")
        ops.append(Op("decide", ms, check_decide(rep, "ORTHOGONAL" if orth else "NOT_ORTHOGONAL")))

        ka, kb, korth, mka, mkb = req["kink"]
        res, ms = call(decision.find_witness, mka, mkb)
        ops.append(Op("witness", ms, check_find_witness(res, ka, kb, korth)))
        rep, ms = call(minimax.minimax_report, mka, mkb)
        ops.append(Op("minimax", ms, check_minimax(rep, ka, kb)))

        la, lb, mla, mlb = req["ladder"]
        for eps in _LADDER:
            res, ms = call(decision.epsilon_witness, mla, mlb, eps)
            ops.append(Op("eps_witness", ms, check_eps_witness(res, la, lb, eps, True)))
        return ops


class Large(Workload):
    """Generic complex pairs at n = 16 through decide(method="both") only."""

    name = "large"
    code = 3
    pool_size = 16
    pass_len = 2

    def make(self, i):
        rng = ip.rng_for(self.seed, self.code, i)
        a, b = ip.random_pair(rng, 16, True)
        return {"a": a, "b": b, "m": (Matrix(Field.COMPLEX, a), Matrix(Field.COMPLEX, b))}

    def run(self, req):
        rep, ms = call(decision.decide, *req["m"], method="both")
        return [Op("decide", ms, check_decide(rep, *k1_oracle(req["a"], req["b"])))]


def _matrix_json(a: np.ndarray, complex_field: bool) -> str:
    if complex_field:
        data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    else:
        data = [float(x) for x in a.ravel()]
    return json.dumps({"rows": a.shape[0], "cols": a.shape[1],
                       "field": "complex" if complex_field else "real", "data": data})


class Cli(Workload):
    """`python -m bjorth check A B` then `python -m bjorth norm A` as
    subprocesses on n = 3 matrix files written at set-up."""

    name = "cli"
    code = 4
    pool_size = 8
    pass_len = 4

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.dir = os.path.join(root, ".bench_out", f"cli-inputs-{os.getpid()}")

    def make(self, i):
        rng = ip.rng_for(self.seed, self.code, i)
        cplx = i % 4 < 2
        orth = i % 2 == 1
        a, b = ip.orthogonal_pair(rng, 3, cplx) if orth else ip.random_pair(rng, 3, cplx)
        pa = os.path.join(self.dir, f"pair{i}.A.json")
        pb = os.path.join(self.dir, f"pair{i}.B.json")
        for path, m in ((pa, a), (pb, b)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_matrix_json(m, cplx))
        return {"a": a, "b": b, "cplx": cplx, "orth": orth, "pa": pa, "pb": pb}

    def generate(self):
        os.makedirs(self.dir, exist_ok=True)
        return super().generate()

    def warm_up(self, pool):
        self.bjorth(["norm", pool[0]["pa"]])

    def after_setup(self):
        # reference status of each pair from the in-process decide
        for req in self.pool:
            req["oracle"] = ("ORTHOGONAL", False) if req["orth"] else k1_oracle(req["a"], req["b"])
            f = field_of(req["cplx"])
            rep = decision.decide(Matrix(f, req["a"]), Matrix(f, req["b"]), method="both")
            req["status"] = rep.verdict.status.value

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def bjorth(self, argv):
        return self.python(["-m", "bjorth", *argv])

    @staticmethod
    def _doc(proc) -> tuple:
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return None, [f"stdout is not one JSON document: {proc.stdout[:200]!r}"]
        if not isinstance(doc, dict) or doc.get("schema_version") != 1:
            return None, ["stdout document lacks schema_version 1"]
        return doc, []

    def run(self, req):
        ops = []
        proc, ms = self.bjorth(["check", req["pa"], req["pb"]])
        fails = raised(proc)
        if not fails:
            expected = {"ORTHOGONAL": 0, "NOT_ORTHOGONAL": 1, "BOUNDARY": 3}[req["status"]]
            if proc.returncode != expected:
                fails.append(f"check exit code {proc.returncode}, expected {expected}: "
                             f"{proc.stderr[-200:]!r}")
            doc, bad = self._doc(proc)
            fails += bad
            if doc is not None:
                if doc.get("status") != req["status"]:
                    fails.append(f"check status {doc.get('status')}, in-process {req['status']}")
                expected, boundary_ok = req["oracle"]
                if doc.get("status") == "BOUNDARY" and not boundary_ok:
                    fails.append("check returned BOUNDARY")
                if expected is not None and doc.get("status") != expected:
                    fails.append(f"check status {doc.get('status')}, oracle {expected}")
        ops.append(Op("cli_check", ms, fails))
        proc, ms = self.bjorth(["norm", req["pa"]])
        fails = raised(proc)
        if not fails:
            if proc.returncode != 0:
                fails.append(f"norm exit code {proc.returncode}: {proc.stderr[-200:]!r}")
            doc, bad = self._doc(proc)
            fails += bad
            if doc is not None:
                want = ip.op_norm(req["a"])
                got = doc.get("op_norm")
                if not isinstance(got, float) or abs(got - want) > 1e-10 * max(1.0, want):
                    fails.append(f"norm {got!r}, oracle {want!r}")
        ops.append(Op("cli_norm", ms, fails))
        return ops


WORKLOADS = {w.name: w for w in (Generic, Structured, Large, Cli)}
