"""The condition table that both realizations read, and the report they give.

The paper's P, Q, G, T1 and T2 conditions each choose the integrand of one
Grassmann positivity condition.  A row of CONDITIONS makes that choice: the
probes as generator words, the mode of the form, F[a, b] = <b_a* b_b>
(plain: P, Q, G) or <b_a* b_b + b_b b_a*> (anticommutator: T1, T2), and
whether it is centred (G subtracts the product of its probes' means on both
sides).  The closed-form realization (`closed`) derives each form in
(gamma, Gamma) from the words; the star-product realization (`conditions`)
builds it on a density's moments.  Both judge a form by its least
eigenvalue in a `ConditionReport`, and both start with the first-order
bounds 0 <= gamma <= 1 (`_first_order`).  This module reads numpy and
`limits` only, so either realization loads it without the other.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .limits import PSD_REL_TOL, _scale


class ConditionReport(NamedTuple):
    """One condition's verdict: the form's least eigenvalue `margin` against `tol`."""

    condition: str
    margin: float
    tol: float
    method: str

    @property
    def passed(self) -> bool:
        """The verdict rule: the margin lies no further below 0 than tol; a NaN margin fails."""
        return self.margin >= -self.tol

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "margin": _json_margin(self.margin),
            "pass": self.passed,
            "tol": self.tol,
            "method": self.method,
        }


def _json_margin(margin: float) -> float | None:
    """A margin as a JSON value: None (null) when it is not finite, as the +inf of an empty form."""
    return margin if math.isfinite(margin) else None


def psd_tolerance(matrix: np.ndarray) -> float:
    """Relative PSD tolerance PSD_REL_TOL * (1 + max-norm)."""
    return PSD_REL_TOL * _scale(matrix)


def _min_eigenvalue(herm: np.ndarray) -> float:
    """The least eigenvalue of an exactly Hermitian form, inf when the form is empty."""
    return float(np.linalg.eigvalsh(herm).min()) if herm.size else math.inf


def _first_order(gamma: np.ndarray) -> ConditionReport:
    """Spectrum bounds 0 <= gamma <= 1 as a single margin, on a validated gamma."""
    eigs = np.linalg.eigvalsh(gamma)
    margin = float(min(eigs.min(), 1.0 - eigs.max()))
    return ConditionReport("first-order", margin, psd_tolerance(gamma), "closed-form")


class Condition(NamedTuple):
    """The `mode` form of the probes `words(m)`, `centred` or not.

    A word lists generator numbers, pbar_1 .. pbar_m as 0 .. m - 1 and p_1 ..
    p_m as m .. 2m - 1; its probe is their product in order, a wedge product
    of elements on the star side and of ladder operators on the closed side.
    """

    words: Callable[[int], list]
    mode: str
    centred: bool


def _pair_words(shifts: tuple[int, int], m: int) -> list:
    """The m * m words of generators a + k and b + l, (a, b) = shifts, in pair order k*m + l."""
    a, b = shifts
    return [[a + k, b + l] for k in range(m) for l in range(m)]


def _t1_words(m: int) -> list:
    """The ordered cubic words p_i p_j p_k, i < j < k."""
    return [[m + i, m + j, m + k] for i, j, k in combinations(range(m), 3)]


def _t2_words(m: int) -> list:
    """The cubic words pbar_i pbar_j p_k, i < j, then the linear words pbar_i."""
    return ([[i, j, m + k] for i, j in combinations(range(m), 2) for k in range(m)]
            + [[i] for i in range(m)])


# P's probes p_k p_l start at generators (m, m), Q's pbar_k pbar_l at (0, 0)
# and G's pbar_k p_l at (0, m).
CONDITIONS = {
    "P": Condition(lambda m: _pair_words((m, m), m), "plain", False),
    "Q": Condition(lambda m: _pair_words((0, 0), m), "plain", False),
    "G": Condition(lambda m: _pair_words((0, m), m), "plain", True),
    "T1": Condition(_t1_words, "anticommutator", False),
    "T2": Condition(_t2_words, "anticommutator", False),
}
