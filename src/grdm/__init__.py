"""Grassmann-integral toolkit for fermionic reduced density matrices.

Star-product algebra over anticommuting generator pairs, a brute-force
Fock-space oracle, extraction of one- and two-body density matrices,
G/P/Q/T1/T2 representability checks, and quasifree state construction.

The exports load lazily (PEP 562): `import grdm` imports no submodule, and
the first access to a name, `grdm.X` or `from grdm import X`, imports the
one submodule that defines it.  Submodules resolve the same way, so
`grdm.fock` works after a bare `import grdm`.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("algebra", "cli", "closed", "conditions", "fock", "kernel", "limits", "quasifree",
               "selftest", "serialize")

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "change_generators", "expectation", "involution", "make_element", "monomial_element",
        "multiply", "pair_integral_closed_form", "psi", "psibar", "raw_integral", "star",
        "star_monomials", "star_trace", "trace_integral", "trace_weight", "unit", "zero",
    ), "algebra"),
    "ConditionReport": "closed",
    **dict.fromkeys(("ELEMENT_CAP", "STAR_CAP"), "limits"),
    **dict.fromkeys((
        "check_G", "check_P", "check_Q", "check_T1", "check_T1_full", "check_T2_full",
        "check_T2_generalized", "condition_battery", "fuzz_conditions", "order_n_check",
        "pdm1_from_density", "pdm2_from_density", "quadratic_form_matrix",
    ), "conditions"),
    **dict.fromkeys((
        "annihilation", "contraction_check", "creation", "from_operator", "pdms_from_rho",
        "random_density", "to_operator",
    ), "fock"),
    **dict.fromkeys(("GrassmannElement", "Monomial", "prune"), "kernel"),
    **dict.fromkeys((
        "QuasifreeSpec", "build_quasifree", "mode_product_expansion", "verify_quasifree",
    ), "quasifree"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
