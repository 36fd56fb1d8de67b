import dataclasses
import gc
import itertools
import random
import weakref
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
from cubicforms.cli import main
from cubicforms.forms import _membership, _residue_row, bareiss, discriminant, index_scale
from cubicforms.forms import lattice_member, phi, residue_grid
from cubicforms.golden import golden_table
from cubicforms.series import _combo_coeff, ALL_PAIRS, count_orbits, table_multiplier


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


def test_twisted_identity_fails_where_its_two_relations_fail(series300):
    # orbits added to a few pairs of L1, L2, L7..L10 at a few indices: at
    # each i the twisted identity fails, on both branches, at exactly the n
    # where 3 xi+(L_i) = xi-(L_{i+1}) or xi-(L_i) = xi+(L_{i+1}) fails
    base_of = {name: left[0] for name, left, _, _ in series_mod.RELATION_PAIRS}
    pairs = [pair for pair in ALL_PAIRS if pair[0] in (1, 2, 7, 8, 9, 10)]
    rng = random.Random(5)
    for _ in range(8):
        series = dict(series300)
        for _ in range(3):
            pair, n = rng.choice(pairs), rng.randrange(1, 301)
            orbits = series[pair].orbits.copy()
            orbits[rng.randrange(2), rng.randrange(2), n] += 1
            series[pair] = dataclasses.replace(series[pair], orbits=orbits)
        relations = verify_relations(300, series=series).details[1:]
        twisted = lambda_coefficient_identity(300, series=series).details
        assert 0 < len(relations) <= len(twisted) <= 12
        want = {(base_of[line.split(" fails")[0]], int(line.split("n=")[1].split(":")[0]))
                for line in relations}
        for branch in ("+1", "-1"):
            got = {(int(line.split(",")[0][2:]), int(line.split("n=")[1].split(":")[0]))
                   for line in twisted if f"branch={branch}," in line}
            assert got == want


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


def test_coeff_reads_n_as_an_integer(series51):
    s = series51[(1, "+")]
    assert s.coeff(np.int64(5)) == s.coeff(5)
    for n in (5.0, 5.5, Fraction(5)):
        with pytest.raises(TypeError):
            s.coeff(n)
    for n in (0, 52):
        with pytest.raises(ValueError, match="outside computed range 1..51"):
            s.coeff(n)


def test_table_multiplier_checks_lattice_and_sign():
    got = [table_multiplier(lat, sign) for lat in (1, 2, 10) for sign in "+-"]
    assert got == [3, 3, 3, 1, 3, 1]
    for lattice, sign in ((0, "+"), (11, "-"), (2, "x"), (1, "pos")):
        with pytest.raises(ValueError):
            table_multiplier(lattice, sign)
    for lattice in (2.0, True):
        with pytest.raises(TypeError):
            table_multiplier(lattice, "-")


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


def _scalar_sides(v):
    """(lattice, member, doubled, residue-slice) for each of the
    decompositions at the point v, on Python ints, with the scalar
    discriminant and residue-table lookup that series reads."""
    doubled = all(t % 2 == 0 for t in v)
    for lattice, base, p_res in series_mod._DECOMPOSITIONS:
        x = v if base == 1 else phi(v)
        member = series_mod._membership(_residue_row(x), lattice)
        yield lattice, member, doubled, series_mod.discriminant(x) % 8 == p_res


def _scalar_decomposition_failures(box: int) -> list:
    """The failure lines of verify_decompositions(box), point by point
    (_scalar_sides)."""
    by_lattice = {lattice: [] for lattice, _, _ in series_mod._DECOMPOSITIONS}
    for v in itertools.product(range(8), repeat=4):
        for lattice, m, dbl, res in _scalar_sides(v):
            if m != (dbl or res) or (dbl and res):
                by_lattice[lattice].append(
                    f"L{lattice} mod-8 failure at residues {v}: "
                    f"member={m}, doubled={dbl}, residue-slice={res}"
                )
    failures = [line for lines in by_lattice.values() for line in lines]
    bad = dict.fromkeys(by_lattice, 0)
    for v in itertools.product(range(-box, box + 1), repeat=4):
        for lattice, m, dbl, res in _scalar_sides(v):
            # a point on both sides of the union counts once for each test
            bad[lattice] += int(m != (dbl or res)) + int(dbl and res)
    failures += [
        f"L{lattice} box decomposition: {count} mismatching points"
        for lattice, count in bad.items() if count
    ]
    return failures


def test_decomposition_sides_exact_at_the_box_bound():
    # every coordinate within 3 of +-MAX_DECOMPOSITION_BOX, where phi's 3 x
    # is past int16: the narrow P mod 8 and residue rows of both bases
    # agree with Python ints point by point, on a grid of four columns and
    # on the box's form, a Python int x1 with (x2, x3, x4) columns
    m = series_mod.MAX_DECOMPOSITION_BOX
    assert 3 * m > np.iinfo(np.int16).max
    side = np.array([-m, -m + 1, -m + 2, -m + 3, m - 3, m - 2, m - 1, m], dtype=np.int64)
    n = len(side)
    cols = [side.reshape([-1 if i == k else 1 for i in range(4)]) for k in range(4)]
    points = list(itertools.product(side.tolist(), repeat=4))
    want = np.array([[s[1:] for s in _scalar_sides(v)] for v in points])

    def got(sides):
        # (points, lattices, 3) in the order of itertools.product
        return np.stack([np.broadcast_arrays(*s) for s in sides]).reshape(4, 3, -1).transpose(2, 0, 1)

    grid = got(series_mod._decomposition_sides(cols))
    assert grid.shape == want.shape == (n ** 4, 4, 3)
    bad = np.flatnonzero((grid != want).any(axis=(1, 2)))
    assert not bad.size, [(points[i], grid[i].tolist(), want[i].tolist()) for i in bad[:5]]
    for i, a in enumerate(side.tolist()):
        at_a = got(series_mod._decomposition_sides((a, *cols[1:])))
        assert (at_a == want[i * n ** 3:(i + 1) * n ** 3]).all(), a


def test_decomposition_sides_have_period_24():
    # verify_decompositions reads one point per class mod 24: every side at
    # x and at x + 24 e_k agrees, on a grid that reaches
    # +-MAX_DECOMPOSITION_BOX and crosses 0 in each coordinate
    m = series_mod.MAX_DECOMPOSITION_BOX
    side = np.array([-m, -m + 5, -30, -24, -13, -1, 0, 7, 23, m - 40, m - 24], dtype=np.int64)
    cols = [side.reshape([-1 if i == k else 1 for i in range(4)]) for k in range(4)]
    want = [np.broadcast_arrays(*s) for s in series_mod._decomposition_sides(cols)]
    for k in range(4):
        shifted = [col + 24 * (i == k) for i, col in enumerate(cols)]
        assert int(np.abs(shifted[k]).max()) <= m
        got = [np.broadcast_arrays(*s) for s in series_mod._decomposition_sides(shifted)]
        for lattice_sides, want_sides in zip(got, want):
            for g, w in zip(lattice_sides, want_sides):
                assert np.array_equal(g, w), k


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


def test_count_orbits_rejects_lattice_out_of_range():
    m = master_classes(50)
    for lattice in (-1, 0, 11):
        with pytest.raises(ValueError, match="lattice index must be 1..10"):
            count_orbits([m], lattice, "+", 50)


def test_count_orbits_rejects_index_past_master():
    # the master at 100 holds no row with |P| = 500; it may not answer 0
    m = master_classes(100)
    for lattice, max_n in ((1, 101), (1, 1000), (2, 4)):
        with pytest.raises(ValueError, match="past the master's 100"):
            count_orbits([m], lattice, "+", max_n)
    for max_n in (0, -2):
        with pytest.raises(ValueError, match="max_index must be >= 1"):
            count_orbits([m], 1, "+", max_n)
    # up to the master's limit it answers: 100 = 1 * 100 and 81 = 27 * 3
    assert count_orbits([m], 1, "-", 100)[:, :, 100].sum() == (m.disc == -100).sum() > 0
    assert count_orbits([m], 2, "+", 3).shape == (2, 2, 4)


def test_count_orbits_rejects_a_partial_master():
    # a chunk of the '-' stream answers its own sign only
    full = count_orbits([master_classes(300)], 1, "-", 300)
    chunks = [c for c in enumeration._pair_stream(1, "-", 300) if len(c)]
    assert np.array_equal(count_orbits(chunks, 1, "-", 300), full)
    with pytest.raises(ValueError, match="holds the sign '-' only"):
        count_orbits(chunks[:1], 1, "+", 300)


def test_master_classes_shares_nothing():
    # each call builds a master of its own, which no verify suite reads: a
    # change to one leaves the relations passing, and a dropped one is freed
    m = master_classes(2000)
    assert m is not master_classes(2000)
    m.stab[:] = 3
    assert verify_relations(300).passed
    dropped = weakref.ref(m)
    del m
    gc.collect()
    assert dropped() is None


def test_verify_all_shares_one_master_per_sublattice(monkeypatch, capsys, fresh_verify_memo):
    # `verify --suite all` builds a master only where a suite reads past the
    # memo's (series._verify_master): the tables at index 51 (L1 at 51, L2
    # at 27 * 51), then the relations at 300; every later suite, the oracle
    # included, reads those two, and the memo ends with one master per
    # sublattice
    builds = []

    def recording(limit, *, sublattice=1):
        builds.append((limit, sublattice))
        return master_classes(limit, sublattice=sublattice)

    monkeypatch.setattr(series_mod, "master_classes", recording)
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.count("[PASS]") > 10
    assert builds == [(51, 1), (1377, 2), (300, 1), (8100, 2)]
    assert {sub: m.limit for sub, m in fresh_verify_memo.items()} == {1: 300, 2: 8100}


def _dense_counts(master, lattice: int, sign: str, max_n: int) -> np.ndarray:
    """The pair's (2, 2, max_n + 1) orbit counts by one dense bincount over
    the master's rows: a reference that shares no code with count_orbits."""
    rows, n = master.select(lattice, sign, max_n)
    cell = 2 * (master.stab[rows] == 3) + master.irred[rows]
    counts = np.bincount(cell * (max_n + 1) + n, minlength=4 * (max_n + 1))
    return counts.reshape(2, 2, max_n + 1)


@pytest.mark.parametrize("max_n", [10 ** 5, 10 ** 6])
def test_streamed_counts_equal_the_master_counts(max_n):
    # every pair, count for count: count_orbits over the pair stream of the
    # sign in the sublattice (the stream `coeffs` counts) and over the
    # master of the sublattice (the verify suites' count), each against the
    # dense count of the master
    cells = np.zeros((2, 2), dtype=np.int64)  # every cell [stab is 3, irreducible] is read
    for sub in (1, 2):
        limit = max_n * index_scale(sub)
        master = master_classes(limit, sublattice=sub)
        for sign in "+-":
            chunks = list(enumeration._pair_stream(sub, sign, max_n))
            assert len(chunks) > 1
            for lattice in range(sub, 11, 2):  # the lattices of the sublattice
                want = _dense_counts(master, lattice, sign, max_n)
                assert np.array_equal(count_orbits([master], lattice, sign, max_n), want)
                assert np.array_equal(count_orbits(chunks, lattice, sign, max_n), want)
                cells += want.sum(axis=2)
    assert (cells > 0).all()
