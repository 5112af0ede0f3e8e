"""Command line front end: every capability on matrix JSON files.

stdout carries exactly one JSON document per invocation (all documents carry
"schema_version"); human-readable remarks go to stderr behind --summary.
Exit codes: 0 success (for check/witness: ORTHOGONAL), 1 NOT_ORTHOGONAL or
witness-search shortfall (an outcome, not an error), 2 input error,
3 numerical failure (exhausted budgets, boundary verdicts, suite failures).
Only `core` is imported up front; each command imports the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .core import (DEFAULT_BUDGET, DEFAULT_TOL, SCHEMA_VERSION, ConvergenceError, Field,
                   InputError, Matrix, _re_im, operator_norm)

# keyed by Status value, so that the table needs no import of `decision`
_EXIT_BY_STATUS = {"ORTHOGONAL": 0, "NOT_ORTHOGONAL": 1, "BOUNDARY": 3}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_pair(args) -> tuple:
    return Matrix.from_json(_read(args.a)), Matrix.from_json(_read(args.b))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("BJORTH_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"BJORTH_SEED must be an integer, got {env!r}") from None
    return 0


def _emit(path: str | None, doc: dict) -> None:
    """Write doc with its schema_version as indented, key-sorted JSON to the
    file path, or to stdout."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _say(args, line: str) -> None:
    if args.summary:
        print(line, file=sys.stderr)


def _verdict_json(v) -> dict:
    c = v.certificate
    return {"status": v.status.value, "margin": v.margin, "method": v.method.value,
            "tol": v.tol, "certificate": None if c is None else
            {"theta": c.theta, "support": c.support, "tol": c.tol}}


def _witness_json(w) -> dict:
    return {"x": w.x.to_pairs(), "norm_residual": w.norm_residual,
            "ip_residual": w.ip_residual, "epsilon": w.epsilon}


def _cmd_norm(args) -> int:
    a = Matrix.from_json(_read(args.a))
    val = operator_norm(a)
    _emit(args.out, {"op_norm": val, "rows": a.rows, "cols": a.cols, "field": a.field.value})
    _say(args, f"op_norm = {val:.12g}")
    return 0


def _cmd_distance(args) -> int:
    from .lineopt import global_inf_lambda
    a, b = _load_pair(args)
    res = global_inf_lambda(a, b, tol=args.tol, budget=args.budget)
    lam = _re_im(res.lambda_star)
    _emit(args.out, {"value": res.value, "lambda": lam, "lower_bound": res.lower_bound,
                     "evaluations": res.evaluations, "budget_limited": res.budget_limited,
                     "stop_reason": res.stop_reason})
    _say(args, f"min over lambda = {res.value:.12g} at lambda = {lam}")
    return 3 if res.budget_limited else 0


def _cmd_check(args) -> int:
    from .decision import decide
    a, b = _load_pair(args)
    rep = decide(a, b, method=args.method, tol=args.tol)
    v = rep.verdict
    _emit(args.out, {**_verdict_json(v),
                     "witness": _witness_json(rep.witness) if rep.witness else None,
                     "witness_error": rep.witness_error})
    _say(args, f"{v.status.value}" + (f" (margin = {v.margin:.6g})"
                                      if v.margin is not None else ""))
    return _EXIT_BY_STATUS[v.status.value]


def _cmd_witness(args) -> int:
    from .decision import Witness, epsilon_witness, find_witness
    a, b = _load_pair(args)
    out = find_witness(a, b) if args.eps is None else epsilon_witness(a, b, args.eps)
    if isinstance(out, Witness):
        _emit(args.out, {"status": "ORTHOGONAL", **_witness_json(out)})
        _say(args, f"witness found, epsilon = {out.epsilon:.3e}")
        return 0
    if args.eps is not None:
        _emit(args.out, {"failed": True, "best_value": out.best_value,
                         "threshold": out.threshold, "x": out.best_x.to_pairs()})
        _say(args, f"no witness: best value {out.best_value:.6g} "
                   f"below threshold {out.threshold:.6g}")
        return 1
    _emit(args.out, _verdict_json(out))
    _say(args, "no witness exists: pair is not orthogonal")
    return 1


def _cmd_minimax(args) -> int:
    from .minimax import minimax_report
    a, b = _load_pair(args)
    rep = minimax_report(a, b, tol=args.tol)
    _emit(args.out, rep.to_json_dict())
    _say(args, f"lhs = {rep.lhs_value:.12g}, rhs = {rep.rhs_value:.12g}, "
               f"gap = {rep.gap:.3e}")
    return 3 if (rep.restart_starved or rep.budget_limited) else 0


def _suite_config(args):
    from .harness import SuiteConfig, Tolerances
    d = {}
    if args.config:
        try:
            d = json.loads(_read(args.config))
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {args.config}: {exc}") from None
        if not isinstance(d, dict):
            raise InputError("suite config must be a JSON object")
        unknown = set(d) - {f.name for f in fields(SuiteConfig)}
        if unknown:
            raise InputError(f"unknown suite config keys: {sorted(unknown)}")
    tol_d = d.get("tolerances", {})
    tol_keys = sorted(f.name for f in fields(Tolerances))
    if not isinstance(tol_d, dict) or set(tol_d) - set(tol_keys):
        raise InputError(f"tolerances must be an object with keys from {tol_keys}")
    # an explicit --seed beats the config file, which beats $BJORTH_SEED
    seed = d["seed"] if args.seed is None and "seed" in d else _resolve_seed(args)
    kw = {key: d[key] for key in ("dims", "trials_per_dim") if key in d}
    if "field" in d:
        kw["field"] = Field.parse(d["field"])
    return SuiteConfig(seed=seed, tolerances=Tolerances(**tol_d), **kw)


def _cmd_suite(args) -> int:
    from .harness import run_suite, save_csv
    cfg = _suite_config(args)
    report = run_suite(cfg)
    _emit(args.out, report)
    if args.csv:
        save_csv(report, args.csv)
    nfail = len(report["failures"])
    agg = report["aggregates"]
    _say(args, f"{len(report['records'])} records, {nfail} failures, "
               f"max_rel_gap = {agg['minimax']['max_rel_gap']}, "
               f"runtime = {report['runtimes']['total']:.1f}s")
    return 3 if nfail else 0


def _cmd_gen(args) -> int:
    from .harness import gen_ginibre, gen_orthogonal_pair
    seed = _resolve_seed(args)
    field = Field.parse(args.field)
    if args.kind == "ginibre":
        _emit(args.out, gen_ginibre(args.n, seed, field).to_json_dict())
        if args.out:
            _say(args, f"wrote {args.out}")
        return 0
    a, b = gen_orthogonal_pair(args.n, seed, field)
    if args.out:
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        _emit(base + ".A.json", a.to_json_dict())
        _emit(base + ".B.json", b.to_json_dict())
        _say(args, f"wrote {base}.A.json and {base}.B.json")
    else:
        _emit(None, {"a": a.to_json_dict(), "b": b.to_json_dict()})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bjorth",
        description="Birkhoff-James orthogonality toolkit for matrix JSON files. "
                    "Exit codes: 0 success/ORTHOGONAL, 1 NOT_ORTHOGONAL, "
                    "2 input error, 3 numerical failure.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, operands=(), *, tol=False, budget=False,
               out_help="write the JSON result to FILE instead of stdout"):
        for name in operands:
            sp.add_argument(name, metavar=f"{name.upper()}.json")
        if tol:
            sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                            help="numerical tolerance (default 1e-7)")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="norm evaluation budget (default 100000)")
        sp.add_argument("--out", default=None, metavar="FILE", help=out_help)
        sp.add_argument("--summary", action="store_true",
                        help="print a one-line summary to stderr")

    sp = sub.add_parser("norm", help="operator norm of one matrix")
    common(sp, ("a",))
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("distance",
                        help="min over lambda of ||A + lambda*B|| with minimizer")
    common(sp, ("a", "b"), tol=True, budget=True)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("check", help="decide orthogonality of the pair")
    sp.add_argument("--method", choices=("def", "witness", "both"),
                    default="both", help="decision route (default both)")
    common(sp, ("a", "b"), tol=True)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("witness",
                        help="construct a witness vector (exact, or --eps relaxed)")
    sp.add_argument("--eps", type=float, default=None,
                    help="relaxed threshold: accept ||(A+tB)x|| > ||A|| - eps")
    common(sp, ("a", "b"))
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("minimax",
                        help="evaluate both sides of the minimax identity")
    common(sp, ("a", "b"), tol=True)
    sp.set_defaults(func=_cmd_minimax)

    sp = sub.add_parser("suite", help="run the randomized evaluation suite")
    sp.add_argument("--config", default=None, metavar="cfg.json",
                    help="suite configuration JSON (defaults when omitted)")
    sp.add_argument("--csv", default=None, metavar="FILE",
                    help="also write the flat per-trial CSV")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    common(sp)
    sp.set_defaults(func=_cmd_suite)

    sp = sub.add_parser("gen", help="generate seeded random matrices")
    sp.add_argument("--kind", choices=("ginibre", "orthopair"), required=True)
    sp.add_argument("--n", type=int, required=True, help="matrix dimension")
    sp.add_argument("--field", default="complex",
                    help="scalar field: complex/c or real/r (default complex)")
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: $BJORTH_SEED, else 0)")
    common(sp, out_help="ginibre: output file; orthopair: prefix for .A.json/.B.json")
    sp.set_defaults(func=_cmd_gen)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
