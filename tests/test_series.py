import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cubicforms import (
    ClassTable,
    CoefficientSeries,
    Qrt3,
    enumerate_classes,
    euler_product_check,
    lambda_coefficient_identity,
    master_classes,
    render_table,
    span_rank,
    verify_congruence_lemma,
    verify_decompositions,
    verify_non_relation,
    verify_relations,
    verify_tables,
)
from cubicforms.golden import golden_table
from cubicforms.series import _combo_coeff, ALL_PAIRS, series_from_master


def test_qrt3_arithmetic():
    x = Qrt3(Fraction(1), Fraction(2))
    y = Qrt3(Fraction(-1), Fraction(1, 3))
    assert x + y == Qrt3(Fraction(0), Fraction(7, 3))
    assert x * y == Qrt3(Fraction(1), Fraction(-5, 3))  # (1+2r)(-1+r/3), r^2=3
    assert not (x - x)


def test_build_series_examples(series300):
    s = series300[(1, "+")]
    assert s.coeff(1) == Fraction(1, 3)
    assert s.coeff(4) == 1
    assert s.coeff(16) == Fraction(4, 3)
    s = series300[(1, "-")]
    assert s.coeff(3) == 1 and s.coeff(23) == 3 and s.coeff(31) == 3
    assert series300[(2, "-")].coeff(1) == 1


def _take(table: ClassTable, idx) -> ClassTable:
    """The table's rows at the positions idx, in that order."""
    idx = np.asarray(idx, dtype=np.int64)
    return ClassTable(
        table.lattice, table.sign, table.n[idx], table.reps[idx], table.stab[idx],
        table.irred[idx],
    )


def test_build_series_from_records(build_series):
    table = enumerate_classes(3, "-", 50)
    s = build_series(table, 50)
    assert isinstance(s, CoefficientSeries)
    assert s.coeff(7) == 1
    with pytest.raises(AssertionError):
        build_series(_take(table, [*range(len(table)), 0]), 50)
    with pytest.raises(ValueError):
        build_series(_take(table, []), 50)


def test_series_splits_sum(series300):
    for pair in ALL_PAIRS:
        s = series300[pair]
        ird, rd = s.thirds(irreducible=True), s.thirds(irreducible=False)
        assert (s.thirds() == ird + rd).all()
        for n in range(1, 301):
            assert s.coeff(n) == Fraction(int(ird[n] + rd[n]), 3)
            # a_n = c1 + c3/3 with count(n) = c1 + c3 orbits
            assert s.coeff(n) <= s.count(n) <= 3 * s.coeff(n)


def test_record_path_equals_master_path(series300, build_series):
    for lattice, sign in ALL_PAIRS:
        want = series300[(lattice, sign)]
        table = enumerate_classes(lattice, sign, 300)
        s = build_series(table, 300)
        assert (s.lattice, s.sign, s.max_n) == (lattice, sign, 300)
        for n in range(1, 301):
            assert s.coeff(n) == want.coeff(n), (lattice, sign, n)
            assert s.count(n) == want.count(n), (lattice, sign, n)
        # 3 a_n of each part, summed row by row
        parts = {True: [0] * 301, False: [0] * 301}
        for n, _, stab, irred in table.rows():
            parts[irred][n] += 3 // stab
        for irreducible, thirds in parts.items():
            assert s.thirds(irreducible=irreducible).tolist() == thirds
            assert want.thirds(irreducible=irreducible).tolist() == thirds


def test_record_path_drops_records_past_max_n(series300, build_series):
    # Rows of index 301..450 are left out, not counted in another cell.
    for lattice, sign in ALL_PAIRS:
        table = enumerate_classes(lattice, sign, 450)
        assert (table.n > 300).any(), (lattice, sign)
        s = build_series(table, 300)
        want = series300[(lattice, sign)]
        assert s.max_n == 300
        for irreducible in (None, True, False):
            assert (
                s.thirds(irreducible=irreducible).tolist()
                == want.thirds(irreducible=irreducible).tolist()
            ), (lattice, sign, irreducible)
        assert [s.count(n) for n in range(1, 301)] == [want.count(n) for n in range(1, 301)]


# One extra orbit of index 5 in one series: (pair, stabilizer slot, irreducible
# slot) and the reports it gives, word for word.
PERTURBED_REPORTS = [
    (
        (2, "+"), 1, 1,
        "[FAIL] relation identities (n <= 300)\n"
        "    6 identities x 300 coefficients\n"
        "    xi-(L1) = xi+(L2) fails at n=5: 0 != 1/3",
        "[FAIL] sqrt(3)-twisted coefficient identity (i in 1,7,9; n <= 300)\n"
        "    i=1, branch=+1, n=5: 3 + 1/3*sqrt(3) != 3 + 0*sqrt(3)\n"
        "    i=1, branch=-1, n=5: -3 + 1/3*sqrt(3) != -3 + 0*sqrt(3)",
    ),
    (
        (9, "+"), 0, 0,
        "[FAIL] relation identities (n <= 300)\n"
        "    6 identities x 300 coefficients\n"
        "    3 xi+(L9) = xi-(L10) fails at n=5: 6 != 3",
        "[FAIL] sqrt(3)-twisted coefficient identity (i in 1,7,9; n <= 300)\n"
        "    i=9, branch=+1, n=5: 3 + 0*sqrt(3) != 6 + 0*sqrt(3)\n"
        "    i=9, branch=-1, n=5: -3 + 0*sqrt(3) != -6 + 0*sqrt(3)",
    ),
]


@pytest.mark.parametrize("pair, stab, irred, relations, twisted", PERTURBED_REPORTS)
def test_identity_failures_report_exact_text(series300, pair, stab, irred, relations, twisted):
    s = series300[pair]
    orbits = s.orbits.copy()
    orbits[stab, irred, 5] += 1
    series = dict(series300)
    series[pair] = dataclasses.replace(s, orbits=orbits)
    for check, want in ((verify_relations, relations), (lambda_coefficient_identity, twisted)):
        rep = check(300, series=series)
        assert not rep.passed
        assert str(rep) == want


def test_checks_reject_n_past_series(series51):
    for check in (verify_relations, lambda_coefficient_identity, span_rank):
        with pytest.raises(ValueError, match="outside computed range"):
            check(52, series=series51)


def test_render_table_rows(series51):
    left = dict(render_table("left", series51))
    right = dict(render_table("right", series51))
    assert left[3] == (3, 3, 3, 1, 0, 1, 0, 0, 3, 3)
    assert right[1] == (1, 1, 1, 0, 1, 1, 1, 1, 0, 0)
    assert right[49] == (5, 5, 3, 0, 3, 5, 5, 5, 0, 0)


def test_verify_tables(series51):
    rep = verify_tables(series=series51)
    assert rep.passed, str(rep)


def test_golden_table_shape():
    for side in ("left", "right"):
        g = golden_table(side)
        assert len(g.rows) == 25
        assert all(len(vals) == 10 for _, vals in g.rows)
    with pytest.raises(ValueError):
        golden_table("middle")


def test_verify_relations(series300):
    rep = verify_relations(300, series=series300)
    assert rep.passed, str(rep)
    # spot values
    assert series300[(9, "-")].coeff(3) == series300[(10, "+")].coeff(3) == 1
    assert 3 * series300[(9, "+")].coeff(5) == series300[(10, "-")].coeff(5) == 3


def test_verify_non_relation(series300):
    rep = verify_non_relation(series=series300)
    assert rep.passed, str(rep)
    assert series300[(3, "-")].coeff(23) == 1 and series300[(4, "+")].coeff(23) == 0
    assert series300[(3, "-")].coeff(3) == 1
    assert series300[(4, "+")].coeff(3) == Fraction(1, 3)


def test_verify_decompositions():
    rep = verify_decompositions()
    assert rep.passed, str(rep)


def test_decomposition_spot_examples():
    from cubicforms import discriminant, lattice_member

    f = (0, 1, -1, 0)
    assert lattice_member(f, 7)
    assert discriminant(f) % 8 == 1
    assert not all(t % 2 == 0 for t in f)
    assert lattice_member((2, 0, 0, 2), 7)


def test_verify_congruence_lemma():
    rep = verify_congruence_lemma()
    assert rep.passed, str(rep)


def test_span_rank(series300):
    # full span has rank 14; small sub-families collapse as the identities say
    sub = {p: series300[p] for p in [(1, "-"), (2, "+"), (1, "+"), (2, "-")]}
    rows = [[sub[p].coeff(n) for n in range(1, 201)] for p in sub]

    def rank_of(rows):
        rows = [list(r) for r in rows]
        rank, col = 0, 0
        while rank < len(rows) and col < len(rows[0]):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                col += 1
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    fac = rows[i][col] / rows[rank][col]
                    rows[i] = [x - fac * y for x, y in zip(rows[i], rows[rank])]
            rank += 1
            col += 1
        return rank

    assert rank_of(rows) == 2
    pair_rows = [
        [series300[p].coeff(n) for n in range(1, 201)] for p in [(3, "-"), (4, "+")]
    ]
    assert rank_of(pair_rows) == 2


def test_span_rank_full(series300):
    assert span_rank(200, series=series300) == 14


def test_euler_product_check(series300):
    rep = euler_product_check(series=series300)
    assert rep.passed, str(rep)
    # worked branch: lattice 1, plus branch
    c1 = _combo_coeff(series300, 1, 1, 1)
    c3 = _combo_coeff(series300, 1, 1, 3)
    c5 = _combo_coeff(series300, 1, 1, 5)
    c15 = _combo_coeff(series300, 1, 1, 15)
    assert c1 == Qrt3(Fraction(0), Fraction(1, 3))   # sqrt(3)/3
    assert c3 == Qrt3(Fraction(1), Fraction(0))
    assert c5 == Qrt3(Fraction(0), Fraction(1))      # sqrt(3)
    assert c15 == Qrt3(Fraction(1), Fraction(0))
    assert c1 * c15 != c3 * c5


def test_lambda_identity(series300):
    rep = lambda_coefficient_identity(300, series=series300)
    assert rep.passed, str(rep)
    # i=1, n=1, plus branch: both sides equal 1
    lhs = _combo_coeff(series300, 2, 1, 1)
    rhs = Qrt3(Fraction(0), Fraction(1)) * _combo_coeff(series300, 1, 1, 1)
    assert lhs == rhs == Qrt3(Fraction(1), Fraction(0))


def test_series_from_master_rejects_lattice_out_of_range():
    m = master_classes(50)
    for lattice in (-1, 0, 11):
        with pytest.raises(ValueError, match="lattice index must be 1..10"):
            series_from_master(m, lattice, "+", 50)
