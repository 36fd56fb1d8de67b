"""End-to-end acceptance criteria.

Each test prints a `[PASS]`/`[FAIL]` line for its criterion (run pytest with
`-s` or rely on captured output on failure). Criteria with runtime budgets
assert them.
"""

import time

import pytest

from cubicforms import (
    build_all_series,
    density_report,
    euler_product_check,
    lambda_coefficient_identity,
    span_rank,
    verify_classification,
    verify_congruence_lemma,
    verify_decompositions,
    verify_indices_and_duality,
    verify_non_relation,
    verify_relations,
    verify_table1_ratios,
    verify_tables,
)
from cubicforms.cli import verify_oracle

RESULTS = []


def _criterion(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number}: {name}" + (f" ({detail})" if detail else "")
    RESULTS.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def series5000():
    return build_all_series(5000)


def test_criterion_01_golden_tables():
    t0 = time.time()
    rep = verify_tables(series=build_all_series(51))
    elapsed = time.time() - t0
    _criterion(
        1,
        "golden tables (500 entries exact)",
        rep.passed and elapsed <= 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_relations(series5000):
    t0 = time.time()
    rep = verify_relations(5000, series=series5000)
    elapsed = time.time() - t0
    _criterion(
        2,
        "six relation identities exact for n <= 5000",
        rep.passed and elapsed <= 600,
        f"{elapsed:.1f}s",
    )


def test_criterion_03_non_relation(series5000):
    rep = verify_non_relation(series=series5000)
    _criterion(3, "non-relation witness at n = 7", rep.passed)


def test_criterion_04_decompositions():
    rep = verify_decompositions(box=20)
    _criterion(4, "four lattice decompositions (mod 8 + box 20)", rep.passed)


def test_criterion_05_congruence_lemma():
    rep = verify_congruence_lemma()
    _criterion(5, "discriminant congruence criteria (4096 tuples)", rep.passed)


def test_criterion_06_rank(series5000):
    rank = span_rank(200, series=build_all_series(200))
    _criterion(6, "span of the twenty series has rank 14", rank == 14, f"rank={rank}")


def test_criterion_07_euler_products(series5000):
    rep = euler_product_check(series=series5000)
    _criterion(7, "no Euler product (all 20 sqrt(3)-combinations)", rep.passed)


def test_criterion_08_lambda_identity(series5000):
    rep = lambda_coefficient_identity(5000, series=series5000)
    _criterion(8, "sqrt(3)-twisted identity exact for n <= 5000", rep.passed)


def test_criterion_09_oracle_equivalence():
    t0 = time.time()
    rep = verify_oracle(300, box=100)
    elapsed = time.time() - t0
    _criterion(
        9,
        "oracle equivalence for all 20 pairs at index <= 300",
        rep.passed and elapsed <= 900,
        f"{elapsed:.1f}s" + ("" if rep.passed else "; " + "; ".join(rep.details)),
    )


def test_criterion_10_classification():
    rep1 = verify_classification()
    rep2 = verify_indices_and_duality()
    _criterion(
        10,
        "invariant-subspace classification, indices, duality",
        rep1.passed and rep2.passed,
    )


def test_criterion_11_local_densities():
    rep = verify_table1_ratios()
    _criterion(11, "2-adic local density ratios (incl. symbolic 2^(-1/3))", rep.passed)


def test_criterion_12_density():
    t0 = time.time()
    rows = density_report(1, "+", 10 ** 6, checkpoints=6)
    rows_minus = density_report(1, "-", 10 ** 6, checkpoints=6)
    elapsed = time.time() - t0
    ok = True
    details = []
    for sign, rr in (("+", rows), ("-", rows_minus)):
        by_x = {r.x: r for r in rr}
        for x in (10 ** 5, 10 ** 6):
            r = by_x[x]
            details.append(f"(L1,{sign}) X={x}: gauge={r.gauge:.3f}")
            ok = ok and r.gauge <= 5.0
        ok = ok and by_x[10 ** 6].gauge <= by_x[10 ** 5].gauge
    ok = ok and elapsed <= 600
    _criterion(
        12,
        "density residual gauge at X in {1e5, 1e6}",
        ok,
        f"{elapsed:.1f}s; " + "; ".join(details),
    )


def test_zz_summary(request):
    print()
    for line in RESULTS:
        print(line)
    # every criterion collected in this pytest run recorded its line,
    # however the run was filtered
    criteria = [
        item for item in request.session.items
        if item.name.startswith("test_criterion_") and item.module is request.module
    ]
    assert len(RESULTS) == len(criteria)
