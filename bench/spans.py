"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the package where the calling module
looks them up (for example `bjorth.decision.zero_in_numerical_range`), so
spans come only from the benchmark's own code and the package runs
unchanged.  Each span keeps its name, start, end, parent span, operation id
and a few deterministic counts read off the call's arguments and result.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, INFO = range(6)


def _gil_info(args, kwargs, res):
    return {"evals": res.evaluations, "budget_limited": bool(res.budget_limited)}


def _nr_info(args, kwargs, res):
    return {"k": args[0].rows}


def _multistart_info(args, kwargs, res):
    planned = len(kwargs.get("det_starts", ())) + kwargs["restarts"]
    return {"starts": res[2], "early_stop": res[2] < planned}


def _decide_info(args, kwargs, res):
    defv, witv = res.definitional, res.witness_verdict
    boundary = res.verdict.status.value == "BOUNDARY"
    disagree = (defv is not None and witv is not None and not boundary
                and defv.status is not witv.status)
    return {"boundary": boundary, "inconclusive": res.witness_error is not None,
            "disagree": disagree}


def _minimax_info(args, kwargs, res):
    return {"starved": bool(res.restart_starved)}


# (module, attribute, span name, count extractor).  A function that several
# modules import by name is wrapped in each of them under one span name.
TRACED = (
    ("bjorth.decision", "operator_norm", "core.operator_norm", None),
    ("bjorth.decision", "top_singular_subspace", "core.top_singular_subspace", None),
    ("bjorth.minimax", "top_singular_subspace", "core.top_singular_subspace", None),
    ("bjorth.lineopt", "global_inf_lambda", "lineopt.global_inf_lambda", _gil_info),
    ("bjorth.decision", "global_inf_lambda", "lineopt.global_inf_lambda", _gil_info),
    ("bjorth.minimax", "global_inf_lambda", "lineopt.global_inf_lambda", _gil_info),
    ("bjorth.decision", "decide", "decision.decide", _decide_info),
    ("bjorth.decision", "check_definitional", "decision.check_definitional", None),
    ("bjorth.decision", "find_witness", "decision.find_witness", None),
    ("bjorth.decision", "zero_in_numerical_range", "decision.zero_in_numerical_range", _nr_info),
    ("bjorth.decision", "epsilon_witness", "decision.epsilon_witness", None),
    ("bjorth.decision", "multistart_minimize", "sphere.multistart_minimize", _multistart_info),
    ("bjorth._sphere", "sphere_descend", "sphere.sphere_descend", None),
    ("bjorth.minimax", "minimax_report", "minimax.minimax_report", _minimax_info),
    ("bjorth.minimax", "rhs_inf_sup", "minimax.rhs_inf_sup", None),
    ("bjorth.minimax", "lhs_sup_inf", "minimax.lhs_sup_inf", None),
)


class Tracer:
    """Records spans while installed; `remove` puts the original functions back."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patched = []

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, info in TRACED:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            setattr(mod, attr, self._wrap(fn, name, info))
            self._patched.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[INFO] = {"raised": True}
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if info is not None:
                span[INFO] = info(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def counts_of(self, op_id) -> list:
        """The deterministic part of one operation's spans: names, nesting, counts."""
        return [[s[NAME], s[PARENT] >= 0, s[INFO]] for s in self.spans if s[OP] == op_id]

    def drop(self, op_id) -> None:
        self.spans[:] = [s for s in self.spans if s[OP] != op_id]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)

    # ------------------------------------------------------------ metrics

    def self_times(self) -> list:
        """Each span's duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, pass_len: int, traced_seconds: float) -> dict:
        """Per-layer metrics.  Counts cover the first pass (request ids below
        pass_len), which every traced run completes, so they repeat exactly
        at one seed; times cover the whole run."""
        spans = self.spans
        selfs = self.self_times()
        dur = defaultdict(list)
        own = defaultdict(list)
        calls = defaultdict(int)
        infos = defaultdict(list)
        layer_self = defaultdict(float)
        for s, st in zip(spans, selfs):
            name = s[NAME]
            dur[name].append(s[END] - s[START])
            own[name].append(st)
            layer_self[name.split(".")[0]] += st
            if s[OP] is not None and s[OP] < pass_len:
                calls[name] += 1
                if s[INFO] is not None:
                    infos[name].append(s[INFO])

        def med(values, scale):
            return statistics.median(values) * scale if values else 0.0

        gil = infos["lineopt.global_inf_lambda"]
        nr = infos["decision.zero_in_numerical_range"]
        ms = infos["sphere.multistart_minimize"]
        dec = infos["decision.decide"]
        reports = [i for i, s in enumerate(spans)
                   if s[NAME] == "minimax.minimax_report" and s[OP] is not None
                   and s[OP] < pass_len]
        lhs_children = defaultdict(int)
        for s in spans:
            if s[NAME] == "minimax.lhs_sup_inf" and s[PARENT] >= 0:
                lhs_children[s[PARENT]] += 1
        gil_self = sum(own["lineopt.global_inf_lambda"])
        gil_evals = sum(s[INFO]["evals"] for s in spans
                        if s[NAME] == "lineopt.global_inf_lambda"
                        and s[INFO] and "evals" in s[INFO])
        traced_total = max(traced_seconds, 1e-12)
        return {
            "core.operator_norm.calls": calls["core.operator_norm"],
            "core.operator_norm.us": med(own["core.operator_norm"], 1e6),
            "core.top_singular_subspace.calls": calls["core.top_singular_subspace"],
            "core.top_singular_subspace.us": med(own["core.top_singular_subspace"], 1e6),
            "lineopt.global_inf_lambda.calls": calls["lineopt.global_inf_lambda"],
            "lineopt.global_inf_lambda.ms": med(own["lineopt.global_inf_lambda"], 1e3),
            "lineopt.evals": statistics.median([i["evals"] for i in gil if "evals" in i]) if gil else 0,
            "lineopt.us_per_eval": gil_self / gil_evals * 1e6 if gil_evals else 0.0,
            "lineopt.budget_limited": sum(bool(i.get("budget_limited")) for i in gil),
            "decision.decide.ms": med(dur["decision.decide"], 1e3),
            "decision.check_definitional.ms": med(dur["decision.check_definitional"], 1e3),
            "decision.find_witness.ms": med(dur["decision.find_witness"], 1e3),
            "decision.zero_in_numerical_range.calls": calls["decision.zero_in_numerical_range"],
            "decision.zero_in_numerical_range.ms": med(dur["decision.zero_in_numerical_range"], 1e3),
            "decision.nr_k2plus.share": (sum(i.get("k", 0) >= 2 for i in nr) / len(nr)) if nr else 0.0,
            "decision.epsilon_witness.ms": med(dur["decision.epsilon_witness"], 1e3),
            "decision.witness_inconclusive": sum(bool(i.get("inconclusive")) for i in dec),
            "decision.boundary": sum(bool(i.get("boundary")) for i in dec),
            "decision.disagree_outside_band": sum(bool(i.get("disagree")) for i in dec),
            "sphere.multistart_minimize.calls": calls["sphere.multistart_minimize"],
            "sphere.multistart_minimize.ms": med(dur["sphere.multistart_minimize"], 1e3),
            "sphere.starts": sum(i.get("starts", 0) for i in ms),
            "sphere.sphere_descend.calls": calls["sphere.sphere_descend"],
            "sphere.sphere_descend.ms": med(own["sphere.sphere_descend"], 1e3),
            "sphere.early_stop.share": (sum(bool(i.get("early_stop")) for i in ms) / len(ms)) if ms else 0.0,
            "minimax.minimax_report.calls": len(reports),
            "minimax.minimax_report.ms": med(dur["minimax.minimax_report"], 1e3),
            "minimax.rhs_inf_sup.ms": med(dur["minimax.rhs_inf_sup"], 1e3),
            "minimax.lhs_sup_inf.ms": med(dur["minimax.lhs_sup_inf"], 1e3),
            "minimax.lhs_calls_per_report": (sum(lhs_children[i] for i in reports) / len(reports)) if reports else 0.0,
            "minimax.restart_starved": sum(bool(i.get("starved")) for i in infos["minimax.minimax_report"]),
            "core.self_share": layer_self["core"] / traced_total,
            "lineopt.self_share": layer_self["lineopt"] / traced_total,
            "decision.self_share": layer_self["decision"] / traced_total,
            "sphere.self_share": layer_self["sphere"] / traced_total,
            "minimax.self_share": layer_self["minimax"] / traced_total,
        }
