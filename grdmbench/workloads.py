"""The three workloads: their inputs, the command each op runs, its judge, and
the traced replay of that command as the chain of public grdm calls it makes.

Each workload is a closed loop with one client: op i starts when op i-1 has
been judged.  Inputs cycle through a seeded pool (check, quasifree) or use a
fresh seed per op (fuzz).  grdm is imported only inside the replays, which
run in the worker; preparing inputs never imports it.

Why these three:
- check-m5: the user-facing check of a supplied m=5 RDM pair.  Almost all of
  it is the closed-form T2 form (55 x 55 t2_bilinear calls); it never touches
  the Grassmann algebra or the Fock oracle, so it is the bypass workload for
  changes there, where the prediction is no change.
- fuzz-m5: the cross-validation campaign at the oracle's size cap, where the
  time goes: check_T2_full and pdm2_from_density on star products, plus the
  4^5 change-of-basis LU and the star-memo fill, which land in the cold op.
- quasifree-m4: the same star layer used the other way, thousands of sparse
  element x single-generator products on a warm memo over 2080 Wick words,
  plus the change_generators minors.
"""

from __future__ import annotations

import json
import os

import numpy as np

import inputs
import judge

# Work-size counts every op must reproduce exactly; a timing is only compared
# across runs that did the same amount of work.
EXPECTED_COUNTS = {
    "check-m5": {"conditions.t1_form_dim": 10, "conditions.t2_form_dim": 55},
    "fuzz-m5": {"fock.kappa_terms": 1024, "conditions.t1_form_dim": 10,
                "conditions.t2_form_dim": 55},
    "quasifree-m4": {"quasifree.kappa_terms": 70, "quasifree.words_checked": 2080},
}
REALIZATION_GAP_TOL = 1e-8


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(inputs.dumps(obj))


class CheckM5:
    name = "check-m5"

    def __init__(self, workdir: str, seed: int) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "report.json")
        self.pool = [os.path.join(workdir, f"pair{k}.json") for k in range(inputs.POOL_SIZE)]
        self._pairs: dict[int, dict] = {}

    def prepare(self) -> None:
        for path, item in zip(self.pool, inputs.check_pool(self.seed)):
            _write(path, item)

    def _pair(self, op: int) -> dict:
        k = op % len(self.pool)
        if k not in self._pairs:
            with open(self.pool[k]) as fh:
                self._pairs[k] = json.load(fh)
        return self._pairs[k]

    def _pair_path(self, op: int) -> str:
        return self.pool[op % len(self.pool)]

    def argv(self, op: int) -> list[str]:
        return ["check", "--in", self._pair_path(op), "--out", self.out]

    def judge(self, op: int, rc: int) -> str | None:
        return judge.judge_check(rc, self.out, self._pair(op),
                                 inputs.is_shifted(op % len(self.pool)))

    def replay(self, tr, op: int):
        from grdm import conditions as cond, serialize

        with tr.span("serialize.load_json"):
            data = serialize.load_json(self._pair_path(op))
        with tr.span("serialize.matrix_from_dict"):
            gamma, _, _ = serialize.matrix_from_dict(data["gamma"], "gamma")
        with tr.span("serialize.matrix_from_dict"):
            Gamma, _, _ = serialize.matrix_from_dict(data["Gamma"], "Gamma")
        reports = []
        with tr.span("conditions.first_order_report"):
            reports.append(cond.first_order_report(gamma))
        for check in (cond.check_P, cond.check_Q, cond.check_G):
            with tr.span(f"conditions.{check.__name__}"):
                reports.append(check(gamma, Gamma, None))
        with tr.span("conditions.t1_form_from_pdms"):
            f1 = cond.t1_form_from_pdms(gamma, Gamma)
        with tr.span("conditions.report_from_form"):
            reports.append(cond.report_from_form("T1", f1, "closed-form", None))
        with tr.span("conditions.t2_form_from_pdms"):
            f2 = cond.t2_form_from_pdms(gamma, Gamma)
        with tr.span("conditions.report_from_form"):
            reports.append(cond.report_from_form("T2", f2, "closed-form", None))
        payload = [r.as_dict() for r in reports]
        with tr.span("serialize.atomic_write_json"):
            serialize.atomic_write_json(self.out, payload)
        rc = 0 if all(r.passed for r in reports) else 1
        return rc, {"conditions.t1_form_dim": f1.shape[0], "conditions.t2_form_dim": f2.shape[0]}, {}


class FuzzM5:
    name = "fuzz-m5"
    m = 5

    def __init__(self, workdir: str, seed: int) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "summary.json")

    def prepare(self) -> None:
        pass

    def argv(self, op: int) -> list[str]:
        return ["fuzz", "--m", str(self.m), "--trials", "1",
                "--seed", str(inputs.fuzz_seed(self.seed, op)), "--out", self.out]

    def judge(self, op: int, rc: int) -> str | None:
        return judge.judge_fuzz(rc, self.out, inputs.fuzz_seed(self.seed, op))

    def replay(self, tr, op: int):
        from grdm import conditions as cond, fock, serialize

        seed = inputs.fuzz_seed(self.seed, op)
        child = np.random.SeedSequence(seed).spawn(1)[0]
        with tr.span("fock.random_density"):
            rho = fock.random_density(self.m, child, sector=None)
        with tr.span("fock.from_operator"):
            kappa = fock.from_operator(rho)
        with tr.span("conditions.pdm1_from_density"):
            gamma = cond.pdm1_from_density(kappa)
        with tr.span("conditions.pdm2_from_density"):
            Gamma = cond.pdm2_from_density(kappa)
        with tr.span("fock.pdms_from_rho"):
            gamma_o, Gamma_o = fock.pdms_from_rho(rho)
        dev = max(np.max(np.abs(gamma - gamma_o)), np.max(np.abs(Gamma - Gamma_o)))
        reports = []
        with tr.span("conditions.first_order_report"):
            reports.append(cond.first_order_report(gamma))
        for check in (cond.check_P, cond.check_Q, cond.check_G):
            with tr.span(f"conditions.{check.__name__}"):
                reports.append(check(gamma, Gamma))
        for check in (cond.check_T1_full, cond.check_T2_full):
            with tr.span(f"conditions.{check.__name__}"):
                reports.append(check(kappa))
        worst = {r.condition: r.margin for r in reports}
        failures = sum(1 for r in reports if not r.passed)
        summary = cond.FuzzSummary(self.m, 1, seed, None, worst, float(dev), 0.0, failures)
        with tr.span("serialize.atomic_write_json"):
            serialize.atomic_write_json(self.out, summary.as_dict())
        rc = 0 if summary.all_pass else 1
        return rc, {"fock.kappa_terms": len(kappa.terms)}, {"kappa": kappa, "pdms": (gamma, Gamma),
                                                             "reports": reports}

    def after_replay(self, extra: dict):
        """Closed-form T1/T2 margins against the Grassmann-form ones, outside the op's spans."""
        from grdm import conditions as cond

        gamma, Gamma = extra["pdms"]
        grass = {r.condition: r.margin for r in extra["reports"]}
        f1 = cond.t1_form_from_pdms(gamma, Gamma)
        f2 = cond.t2_form_from_pdms(gamma, Gamma)
        gap = max(abs(cond.report_from_form("T1", f1, "closed-form").margin - grass["T1"]),
                  abs(cond.report_from_form("T2", f2, "closed-form").margin - grass["T2"]))
        counts = {"conditions.t1_form_dim": f1.shape[0], "conditions.t2_form_dim": f2.shape[0]}
        return counts, gap


class QuasifreeM4:
    name = "quasifree-m4"

    def __init__(self, workdir: str, seed: int) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "quasifree.json")
        self.pool = [os.path.join(workdir, f"gamma{k}.json") for k in range(inputs.POOL_SIZE)]
        self._gammas: dict[int, dict] = {}

    def prepare(self) -> None:
        for path, item in zip(self.pool, inputs.quasifree_pool(self.seed)):
            _write(path, item["gamma"])

    def _gamma_path(self, op: int) -> str:
        return self.pool[op % len(self.pool)]

    def argv(self, op: int) -> list[str]:
        return ["quasifree", "--in", self._gamma_path(op), "--out", self.out, "--max-points", "4"]

    def judge(self, op: int, rc: int) -> str | None:
        k = op % len(self.pool)
        if k not in self._gammas:
            with open(self.pool[k]) as fh:
                self._gammas[k] = json.load(fh)
        return judge.judge_quasifree(rc, self.out, self._gammas[k])

    def replay(self, tr, op: int):
        from grdm import conditions as cond, quasifree, serialize

        with tr.span("serialize.load_json"):
            data = serialize.load_json(self._gamma_path(op))
        with tr.span("serialize.matrix_from_dict"):
            gamma, _, m = serialize.matrix_from_dict(data, "gamma")
        with tr.span("quasifree.build_quasifree"):
            spec, kappa = quasifree.build_quasifree(gamma)
        with tr.span("conditions.pdm1_from_density"):
            pdm_dev = float(np.max(np.abs(cond.pdm1_from_density(kappa) - gamma)))
        with tr.span("quasifree.verify_quasifree"):
            wick_dev = quasifree.verify_quasifree(kappa, spec, max_points=4)
        with tr.span("quasifree.generator_words"):
            points = sum(1 for _ in quasifree.generator_words(m, 4))
        with tr.span("serialize.element_to_dict"):
            element = serialize.element_to_dict(kappa)
        payload = {"element": element,
                   "report": {"pdm1_max_dev": pdm_dev, "wick_max_dev": wick_dev,
                              "points_checked": points}}
        with tr.span("serialize.atomic_write_json"):
            serialize.atomic_write_json(self.out, payload)
        return 0, {"quasifree.kappa_terms": len(kappa.terms), "quasifree.words_checked": points}, {}


WORKLOADS = {w.name: w for w in (CheckM5, FuzzM5, QuasifreeM4)}
