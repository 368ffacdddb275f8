"""The closed-form realization of the conditions, in (gamma, Gamma) alone.

The paper's P, Q, G, T1 and T2 conditions are positivity of forms in the one-
and two-body matrices, so checking a pair needs no Grassmann element.  This
module derives each row of the condition table (`table.CONDITIONS`) from its
words by normal ordering under the canonical anticommutation relations (CAR),
pbar_k read as a+_k and p_k as a_k, into a cached index map on
(Gamma, gamma) (`_index_map`); it validates a pair once (`_validate_pair`)
and builds the vector those maps read (`_source`); and it holds the battery
that `grdm check` runs, first-order and then one closed report per row
(`_report`), and that command's body, `run`.  At module level it reads
json, numpy, `limits` and `table` only (`run` adds `serialize` and `cli`);
the star-product realization of the same forms, with its own battery, lives
in `conditions`, which imports this module only inside its closed-form
wrappers, and they all call one entry, `pair_form`, one pair's closed form.
Index conventions (0-based): gamma[k, l] is the expectation of pbar_{l+1} *
p_{k+1}; two-body indices flatten row-major, (k, l) -> k*m + l, and
Gamma[(i, j), (k, l)] is the expectation of the normal-ordered word
pbar_{l+1} pbar_{k+1} p_{i+1} p_{j+1}.
"""

from __future__ import annotations

import functools
import json
from itertools import combinations, groupby, permutations

import numpy as np

from .limits import _coo_apply, _read_only, _require_hermitian
from .table import CONDITIONS, ConditionReport, _first_order, _min_eigenvalue, psd_tolerance


def _validate_pair(gamma: np.ndarray, Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    gamma = _require_hermitian(gamma, "gamma")
    Gamma = _require_hermitian(Gamma, "Gamma")
    m = gamma.shape[0]
    if Gamma.shape != (m * m, m * m):
        raise ValueError(f"Gamma shape {Gamma.shape} does not match m = {m}")
    return gamma, Gamma, m


def _source(gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """v = [Gamma.ravel(), gamma.ravel(), 1], the vector every closed form's index map reads."""
    return np.concatenate((Gamma.ravel(), gamma.ravel(), [1.0]))


# ---------------------------------------------------------------------------
# closed forms derived from the words by CAR normal ordering

def _sign(perm) -> int:
    """The sign of a sequence of distinct numbers as a permutation of their sorted order."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def _patterns(words: list, m: int) -> list:
    """A row's words by pattern of generator types: (creators, runs, (rows, indices, values)).

    A run of same-type generators whose indices increase strictly in every
    word of the pattern is antisymmetrised, sign(s) / r! at each order s of
    its r indices; every other generator is a unit index and its own run.
    """
    groups: dict = {}
    for k, word in enumerate(words):
        groups.setdefault(tuple(map(m.__gt__, word)), []).append(k)
    patterns = []
    for creators, rows in groups.items():
        group = [words[k] for k in rows]
        index = np.array(group, dtype=np.intp) % m
        rows, values, runs = np.array(rows), np.ones(len(rows)), []
        for _, run in groupby(range(len(creators)), creators.__getitem__):
            run = tuple(run)
            if len(run) == 1 or not all(w[a] < w[a + 1] for w in group for a in run[:-1]):
                runs += [(axis,) for axis in run]
                continue
            runs.append(run)
            orders = list(permutations(run))
            index = index[:, [[*range(run[0]), *s, *range(run[-1] + 1, len(creators))]
                              for s in orders]].reshape(-1, len(creators))
            rows = np.repeat(rows, len(orders))
            values = (values[:, None] * [_sign(s) / len(orders) for s in orders]).ravel()
        patterns.append((creators, runs, (rows, list(index.T), values)))
    return patterns


def _normal_order(ops: tuple) -> list:
    """Wick's theorem on ops (creator, slot): (normal-ordered ops, contracted pairs, sign) per term.

    The first a_p just left of an a+_q becomes delta_pq - a+_q a_p.
    """
    out, todo = [], [(ops, (), 1)]
    while todo:
        ops, pairs, sign = todo.pop()
        for p in range(len(ops) - 1):
            if not ops[p][0] and ops[p + 1][0]:
                todo.append((ops[:p] + ops[p + 2:], pairs + ((ops[p][1], ops[p + 1][1]),), sign))
                todo.append((ops[:p] + (ops[p + 1], ops[p]) + ops[p + 2:], pairs, -sign))
                break
        else:
            out.append((ops, pairs, sign))
    return out


def _canonical(word: tuple, pairs: tuple, x_runs: list, y_runs: list) -> tuple:
    """A normal-ordered term as ((creators, annihilators, links), sign), relabelled within runs.

    a+_{c1} .. a+_{cp} a_{i1} .. a_{ip} reads the source at i1 .. ip cp .. c1:
    gamma[k, l] for a+_l a_k, Gamma[(i, j), (d, c)] for a+_c a+_d a_i a_j.  A
    term no pdm reads (three-body or more, or unbalanced) sorts its creators
    and annihilators, so that terms that cancel meet.  Each run's slots are
    sorted by what they link to, x runs first, at the sign of the sort;
    `links` holds per slot its partner's new position, or ~c for source slot c.
    """
    sign = 1
    cre, ann = [s for c, s in word if c], [s for c, s in word if not c]
    if len(cre) != len(ann) or len(cre) > 2:
        sign = _sign(cre) * _sign(ann)
        cre.sort()
        ann.sort()
    link = dict(zip(ann + cre[::-1], range(-1, -1 - len(word), -1)))
    for s, t in pairs:
        link[s], link[t] = t, s
    order, rank = [], {s: k for k, run in enumerate(y_runs) for s in run}
    for runs in (x_runs, y_runs):
        for run in runs:
            if len(run) > 1:
                run = [s for _, s in sorted([(link[s] if link[s] < 0 else rank[link[s]], s) for s in run])]
                sign *= _sign(run)
            order += run
        rank = {s: k for k, s in enumerate(order)}
    return (len(cre), len(ann), tuple([link[s] if link[s] < 0 else rank[link[s]] for s in order])), sign


def _pattern_terms(condition: str, x: tuple, y: tuple, mode: str) -> list:
    """The (spec, scale) terms of <b_x+ b_y>, plus <b_y b_x+> in the anticommutator mode.

    b_x and b_y are word patterns x and y on symbolic indices, the slots.
    Each term of the normal-ordered products is one pdm entry whose letters
    the contractions share, and terms equal up to relabelling merge.  A
    surviving term that no pdm reads raises, naming the condition.
    """
    (cx, rx, _), (cy, ry, _) = x, y
    n = len(cx)
    dagger = tuple((not c, s) for s, c in reversed(list(enumerate(cx))))
    probe = tuple((c, n + s) for s, c in enumerate(cy))
    y_runs = [tuple(n + s for s in run) for run in ry]
    merged = {}
    for ops in [dagger + probe] + ([probe + dagger] if mode == "anticommutator" else []):
        for word, pairs, sign in _normal_order(ops):
            if any((s < n) == (t < n) for s, t in pairs):
                raise ValueError(f"condition {condition} does not reduce to (gamma, Gamma): "
                                 "a word that is not normal-ordered contracts inside its probe")
            key, relabel = _canonical(word, pairs, rx, y_runs)
            merged[key] = merged.get(key, 0) + sign * relabel
    terms = []
    for (creators, annihilators, links), scale in merged.items():
        letters, source = [], {}  # one letter per link
        for k, t in enumerate(links):
            letters.append(letters[t] if 0 <= t < k else chr(ord("a") + len(set(letters))))
            if t < 0:
                source[~t] = letters[k]
        spec = ",".join(("".join(letters[:n]), "".join(letters[n:]),
                         "".join(source[c] for c in range(creators + annihilators))))
        if scale and (creators != annihilators or creators > 2):
            raise ValueError(f"condition {condition} does not reduce to (gamma, Gamma): its term "
                             f"{spec} has {creators} creators and {annihilators} annihilators")
        terms += [(spec, scale)] if scale else []
    return terms


# ---------------------------------------------------------------------------
# closed forms as index maps on (Gamma, gamma)

def _flat(indices: list, m: int, size: int) -> np.ndarray:
    """Row-major flat index over (m,) * len(indices) of equal-length index arrays."""
    out = indices[0] if indices else np.zeros(size, dtype=np.intp)
    for ix in indices[1:]:
        out = out * m + ix
    return out


def _join(kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (p, q) with kx[p] == ky[q], as two index arrays, p ascending."""
    order = np.argsort(ky, kind="stable")
    sorted_ky = ky[order]
    lo = np.searchsorted(sorted_ky, kx, "left")
    counts = np.searchsorted(sorted_ky, kx, "right") - lo
    first = np.cumsum(counts) - counts
    xi = np.repeat(np.arange(len(kx)), counts)
    return xi, order[np.arange(len(xi)) + np.repeat(lo - first, counts)]


def _term_entries(x, y, spec: str, scale: float, n: int, m: int):
    """(row, source, coeff) of scale * sum conj(X[x, ...]) Y[y, ...] v[...] from the nonzeros of X, Y.

    The spec names the indices of X, Y and v (Gamma for four letters, gamma
    for two, the constant 1 for none); X and Y join on the indices they share.
    """
    (px, ix, vx), (py, iy, vy) = x, y
    xs, ys, ss = spec.split(",")
    shared = [c for c in xs if c in ys]
    xi, yi = (_join(_flat([ix[xs.index(c)] for c in shared], m, len(px)),
                    _flat([iy[ys.index(c)] for c in shared], m, len(py)))
              if shared else np.divmod(np.arange(len(px) * len(py)), len(py)))
    source = _flat([ix[xs.index(c)][xi] if c in xs else iy[ys.index(c)][yi] for c in ss], m, len(xi))
    offset = {4: 0, 2: m ** 4, 0: m ** 4 + m * m}[len(ss)]
    return px[xi] * n + py[yi], offset + source, scale * vx[xi].conj() * vy[yi]


@functools.lru_cache(maxsize=16)
def _index_map(condition: str, m: int) -> tuple[tuple, int]:
    """A table condition's closed form at m as one COO map on v = [Gamma.ravel(), gamma.ravel(), 1].

    Returns the read-only (row, source, coeff) triple, whose duplicate
    entries add up, and the probe count n: the triple applied to v is the
    raveled n x n form before Hermitisation and centring.  The terms come
    from `_pattern_terms` per pair of word patterns.  At most 16 are cached.
    """
    row = CONDITIONS[condition]
    words = row.words(m)
    patterns = _patterns(words, m)
    empty = (np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)
    entries = [_term_entries(x[2], y[2], spec, scale, len(words), m)
               for x in patterns for y in patterns
               for spec, scale in _pattern_terms(condition, x, y, row.mode)]
    return _read_only(*(np.concatenate(part) for part in zip(empty, *entries))), len(words)


def _index_form(condition: str, m: int, source: np.ndarray) -> np.ndarray:
    """A table condition's closed form at m on a validated pair's `_source`, exactly Hermitian.

    (F + F^H)/2 with F the cached index map applied to the source; when the
    condition is centred, less outer(g, conj(g)) with g = gamma.ravel(), and
    Hermitised again, since the complex outer product can leave roundoff
    imaginary parts on its diagonal.
    """
    (rows, src, coeff), n = _index_map(condition, m)
    F = _coo_apply(rows, src, coeff, source, n * n).reshape(n, n)
    F = (F + F.conj().T) / 2
    if CONDITIONS[condition].centred:
        g = source[m ** 4:-1]
        F -= np.outer(g, g.conj())
        F = (F + F.conj().T) / 2
    return F


def pair_form(condition: str, gamma: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """A table condition's closed form on one pair (gamma, Gamma): validated, then `_index_form`."""
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    return _index_form(condition, m, _source(gamma, Gamma))


def _report(condition: str, m: int, source: np.ndarray) -> ConditionReport:
    """A table condition's closed-form report on a validated pair's `_source`.

    `_index_form` is Hermitian by construction, so it goes straight to one eigensolve.
    """
    F = _index_form(condition, m, source)
    return ConditionReport(condition, _min_eigenvalue(F), psd_tolerance(F), "closed-form")


def battery(gamma: np.ndarray, Gamma: np.ndarray | None = None) -> list[ConditionReport]:
    """First-order, then with Gamma every table condition in closed form: `grdm check`'s battery.

    The pair is validated and its source built once.
    """
    if Gamma is None:
        return [_first_order(_require_hermitian(gamma, "gamma"))]
    gamma, Gamma, m = _validate_pair(gamma, Gamma)
    source = _source(gamma, Gamma)
    return [_first_order(gamma)] + [_report(name, m, source) for name in CONDITIONS]


def run(args) -> int:
    """`grdm check`: `battery` on the --in pair or bare gamma, its reports printed and written to --out."""
    from . import serialize
    from .cli import write_out

    if args.tol is not None and not 0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    gamma, Gamma, _ = serialize._load_check_input(args.infile)
    reports = battery(gamma, Gamma)
    if args.tol is not None:
        reports = [r._replace(tol=args.tol) for r in reports]
    if args.outfile is not None:
        write_out(args.outfile, json.dumps([r.as_dict() for r in reports], indent=2))
    if args.verbose or args.outfile is None:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.condition:<12} "
                  f"margin {r.margin:+.3e} (tol {r.tol:.1e}, {r.method})")
    return 0 if all(r.passed for r in reports) else 1
