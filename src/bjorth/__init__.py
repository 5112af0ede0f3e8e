"""Birkhoff-James orthogonality toolkit for finite real or complex matrix pairs.

A matrix A is Birkhoff-James orthogonal to B when no scalar multiple of B
lowers the operator norm: inf over lambda of ||A + lambda*B|| >= ||A||.
The package decides that relation two independent ways (direct norm
minimization, and witness vectors through the numerical range of a
compressed product), quantifies the sup-inf / inf-sup minimax identity
behind it, and ships a reproducible random-pair evaluation harness plus a
command line front end.

`import bjorth` loads no submodule: each public name is imported from its
submodule on first access (PEP 562), and each CLI command imports only the
modules it runs.
"""

# public name -> submodule that defines it, in the order of __all__
_EXPORTS = {
    "core": ("ConvergenceError", "Field", "InputError", "Matrix", "SpectralData",
             "Vector", "hermitian_eig", "inner", "operator_norm",
             "top_singular_subspace"),
    "decision": ("DecisionReport", "Method", "SeparationCertificate", "Status",
                 "Verdict", "Witness", "WitnessFailure", "WitnessSearchError",
                 "check_definitional", "decide", "epsilon_witness", "find_witness",
                 "vector_bj_check", "zero_in_numerical_range"),
    "lineopt": ("LineMinResult", "global_inf_lambda", "inner_inf", "limit_lemma_check"),
    "minimax": ("MinimaxReport", "SupInfResult", "lhs_sup_inf", "minimax_report",
                "rhs_inf_sup"),
    "harness": ("SuiteConfig", "Tolerances", "gen_ginibre", "gen_orthogonal_pair",
                "run_suite", "save_csv", "save_report", "trial_seed"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
