import dataclasses
import itertools
import random
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
from cubicforms import enumeration, series as series_mod
from cubicforms.forms import _membership, _residue_row, bareiss, discriminant, index_scale
from cubicforms.forms import lattice_member, phi, residue_grid
from cubicforms.golden import golden_table
from cubicforms.series import _combo_coeff, ALL_PAIRS, count_orbits, series_from_master


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


def test_series_splits_sum(series300, orbit_count):
    for pair in ALL_PAIRS:
        s = series300[pair]
        ird, rd = s.thirds(irreducible=True), s.thirds(irreducible=False)
        assert (s.thirds() == ird + rd).all()
        for n in range(1, 301):
            assert s.coeff(n) == Fraction(int(ird[n] + rd[n]), 3)
            # a_n = c1 + c3/3 with orbit_count(s, n) = c1 + c3 orbits
            assert s.coeff(n) <= orbit_count(s, n) <= 3 * s.coeff(n)


def test_record_path_equals_master_path(series300, build_series, class_rows, orbit_count):
    for lattice, sign in ALL_PAIRS:
        want = series300[(lattice, sign)]
        table = enumerate_classes(lattice, sign, 300)
        s = build_series(table, 300)
        assert (s.lattice, s.sign, s.max_n) == (lattice, sign, 300)
        for n in range(1, 301):
            assert s.coeff(n) == want.coeff(n), (lattice, sign, n)
            assert orbit_count(s, n) == orbit_count(want, n), (lattice, sign, n)
        # 3 a_n of each part, summed row by row
        parts = {True: [0] * 301, False: [0] * 301}
        for n, _, stab, irred in class_rows(table):
            parts[irred][n] += 3 // stab
        for irreducible, thirds in parts.items():
            assert s.thirds(irreducible=irreducible).tolist() == thirds
            assert want.thirds(irreducible=irreducible).tolist() == thirds


def test_record_path_drops_records_past_max_n(series300, build_series, orbit_count):
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
        assert [orbit_count(s, n) for n in range(1, 301)] == [
            orbit_count(want, n) for n in range(1, 301)
        ]


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


def test_thirds_rejects_upto_outside_its_range(series51):
    s = series51[(1, "+")]
    assert len(s.thirds(0)) == 1 and len(s.thirds(51)) == 52
    for upto in (-1, -3, -52, 52):
        with pytest.raises(ValueError, match="outside computed range 0..51"):
            s.thirds(upto)


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


def test_relations_and_twisted_identity_past_one_million():
    # the even lattices index by |P| / 27, so at max_n = 370000 the identities
    # compare the L1 master's rows up to |P| = 3.7e5 with the L2 master's
    # (b, c in 3Z) up to |P| = 9.99e6, past the 1.35e5 that the acceptance
    # tests reach; each check counts one relation's series at a time
    for check in (verify_relations, lambda_coefficient_identity):
        rep = check(370000)
        assert rep.passed, str(rep)
        assert "n <= 370000" in rep.name


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


@pytest.mark.parametrize("box", [-1, series_mod.MAX_DECOMPOSITION_BOX + 1])
def test_verify_decompositions_rejects_box_out_of_range(box):
    # below 0 the box is empty (a vacuous pass); past the bound P(phi(x))
    # can leave int64
    with pytest.raises(ValueError, match="box must be in 0..11737"):
        verify_decompositions(box)


def _scalar_decomposition_failures(box: int) -> list:
    """The failure lines of verify_decompositions(box), point by point with
    the scalar discriminant and residue-table lookup that series reads."""
    disc = series_mod.discriminant

    def member(x, lattice):
        return series_mod._membership(_residue_row(x), lattice)

    def sides(v):
        doubled = all(t % 2 == 0 for t in v)
        for lattice, base, p_res in series_mod._DECOMPOSITIONS:
            x = v if base == 1 else phi(v)
            yield lattice, member(x, lattice), doubled, disc(x) % 8 == p_res

    by_lattice = {lattice: [] for lattice, _, _ in series_mod._DECOMPOSITIONS}
    for v in itertools.product(range(8), repeat=4):
        for lattice, m, dbl, res in sides(v):
            if m != (dbl or res) or (dbl and res):
                by_lattice[lattice].append(
                    f"L{lattice} mod-8 failure at residues {v}: "
                    f"member={m}, doubled={dbl}, residue-slice={res}"
                )
    failures = [line for lines in by_lattice.values() for line in lines]
    bad = dict.fromkeys(by_lattice, 0)
    for v in itertools.product(range(-box, box + 1), repeat=4):
        for lattice, m, dbl, res in sides(v):
            # a point on both sides of the union counts once for each test
            bad[lattice] += int(m != (dbl or res)) + int(dbl and res)
    failures += [
        f"L{lattice} box decomposition: {count} mismatching points"
        for lattice, count in bad.items() if count
    ]
    return failures


def _flipped_membership(res, lattice):
    # membership with the residue (1, 0, 0, 0) mod 6 flipped in every lattice
    return _membership(res, lattice) ^ (res == _residue_row((1, 0, 0, 0)))


@pytest.mark.parametrize("box", [3, 5])
def test_decomposition_box_counts_every_point(monkeypatch, box):
    # the broadcast grid against a scalar loop over every point, unpatched
    # and with a wrong discriminant or membership, whose mismatches the box
    # lines count; the report's full failure list is read through _report
    captured, report = [], series_mod._report

    def capture(name, failures, extra=None):
        captured.append(failures)
        return report(name, failures, extra)

    monkeypatch.setattr(series_mod, "_report", capture)
    mutants = [
        None,
        ("discriminant", lambda cols: discriminant(cols) + 4),
        ("_membership", _flipped_membership),
    ]
    for mutant in mutants:
        with monkeypatch.context() as patch:
            if mutant:
                patch.setattr(series_mod, *mutant)
            want = _scalar_decomposition_failures(box)
            rep = verify_decompositions(box)
        assert captured.pop() == want
        assert rep.passed == (mutant is None)
        if mutant:
            assert len([line for line in want if "box" in line]) == 4


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


def test_congruence_lemma_failures_read_tuple_by_tuple(monkeypatch):
    # a wrong discriminant: the report lists the mismatches residue tuple by
    # tuple, P = 1 before P = 5 at each, as a loop over the tuples writes them
    def shifted(cols):
        return discriminant(cols) + 4

    monkeypatch.setattr(series_mod, "discriminant", shifted)
    residues = residue_grid(8)
    p = shifted(residues) % 8
    a, b, c, d = residues % 2
    criteria = {
        1: ((a == 0) & (d == 0) & (b == 1) & (c == 1)) | ((a == 1) & (d == 1) & (b != c)),
        5: ((b == 0) & (c == 0) & (a == 1) & (d == 1)) | ((b == 1) & (c == 1) & (a != d)),
    }
    want = []
    for i in range(residues.shape[1]):
        for r, cond in criteria.items():
            if (p[i] == r) != cond[i]:
                v = tuple(residues[:, i].tolist())
                want.append(f"P={r} mod 8 criterion fails at {v}: P%8={p[i]}")
    rep = verify_congruence_lemma()
    assert not rep.passed and len(want) > 20
    assert rep.details == want[:20] + [f"... and {len(want) - 20} more failures"]


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

    def thirds(pairs):
        # the integer rows 3 a_n that span_rank eliminates
        return [series300[p].thirds(200)[1:].tolist() for p in pairs]

    assert rank_of(rows) == len(bareiss(thirds(sub))[0]) == 2
    pairs = [(3, "-"), (4, "+")]
    pair_rows = [[series300[p].coeff(n) for n in range(1, 201)] for p in pairs]
    assert rank_of(pair_rows) == len(bareiss(thirds(pairs))[0]) == 2


def test_span_rank_full(series300):
    assert span_rank(200, series=series300) == 14


@pytest.mark.parametrize("k", [0, 1, 7, 14, 20])
def test_span_rank_elimination_counts_independent_rows(k):
    # 20 x 40 integer rows: combinations C B of k independent rows B = (I_k | R),
    # with C = (I_k over random rows), so the rank is exactly k
    rng = random.Random(k)
    basis = [[int(i == j) for j in range(k)] + [rng.randint(-5, 5) for _ in range(40 - k)]
             for i in range(k)]
    coeffs = [[int(i == j) for j in range(k)] for i in range(k)]
    coeffs += [[rng.randint(-3, 3) for _ in range(k)] for _ in range(20 - k)]
    rng.shuffle(coeffs)
    rows = [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(40)] for cs in coeffs]
    pivots, det = bareiss(rows)
    # the row space is that of B, whose echelon pivots are its first k columns
    assert pivots == list(range(k))
    # the leading 20 x 20 block is a row permutation of I_20 at k = 20, else singular
    assert abs(det) == (k == 20)


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


def test_series_from_master_rejects_index_past_master(orbit_count):
    # the master at 100 holds no row with |P| = 500; it may not answer 0
    m = master_classes(100)
    for lattice, max_n in ((1, 101), (1, 1000), (2, 4)):
        with pytest.raises(ValueError, match="past the master's 100"):
            series_from_master(m, lattice, "+", max_n)
    for max_n in (0, -2):
        with pytest.raises(ValueError, match="max_index must be >= 1"):
            series_from_master(m, 1, "+", max_n)
    # up to the master's limit it answers: 100 = 1 * 100 and 81 = 27 * 3
    assert orbit_count(series_from_master(m, 1, "-", 100), 100) == (m.disc == -100).sum() > 0
    assert series_from_master(m, 2, "+", 3).max_n == 3


def test_series_from_master_rejects_a_partial_master():
    # a one-sign master answers its own sign only
    full = series_from_master(master_classes(300), 1, "-", 300)
    neg = master_classes(300, "-")
    assert (series_from_master(neg, 1, "-", 300).orbits == full.orbits).all()
    with pytest.raises(ValueError, match="holds the sign '-' only"):
        series_from_master(neg, 1, "+", 300)


def _dense_counts(master, lattice: int, sign: str, max_n: int) -> np.ndarray:
    """The pair's (2, 2, max_n + 1) orbit counts by one dense bincount over
    the master's rows: a reference that shares no code with count_orbits."""
    rows, n = master.select(lattice, sign, max_n)
    cell = 2 * (master.stab[rows] == 3) + master.irred[rows]
    counts = np.bincount(cell * (max_n + 1) + n, minlength=4 * (max_n + 1))
    return counts.reshape(2, 2, max_n + 1)


@pytest.mark.parametrize("max_n", [10 ** 5, 10 ** 6])
def test_streamed_counts_equal_the_master_counts(monkeypatch, max_n):
    # every pair, count for count: count_orbits over the stratum tasks of
    # the sign (the stream `coeffs` counts) and over the master
    # (series_from_master), each against the dense count of the master
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    cells = np.zeros((2, 2), dtype=np.int64)  # every cell [stab is 3, irreducible] is read
    for sub in (1, 2):
        limit = max_n * index_scale(sub)
        for sign in "+-":
            master = master_classes(limit, sign, sublattice=sub)
            tasks = enumeration._selection_tasks(limit, sign, sub)
            chunks = list(enumeration._task_orbits(tasks, limit, sign, sub))
            assert len(chunks) > 1
            for lattice in range(sub, 11, 2):  # the lattices of the sublattice
                want = _dense_counts(master, lattice, sign, max_n)
                assert np.array_equal(series_from_master(master, lattice, sign, max_n).orbits, want)
                assert np.array_equal(count_orbits(chunks, lattice, sign, max_n), want)
                cells += want.sum(axis=2)
            enumeration._MASTER_CACHE.clear()
    assert (cells > 0).all()
