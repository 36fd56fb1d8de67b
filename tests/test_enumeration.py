import json
import multiprocessing
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from cubicforms import (
    brute_force_classes,
    discriminant,
    enumerate_classes,
    hessian,
    is_irreducible,
    lattice_member,
    master_classes,
)
from cubicforms import enumeration
from cubicforms.cli import main
from cubicforms.enumeration import MAX_LIMIT
from cubicforms.forms import _d_windows, _isqrt64
from cubicforms.reduction import (
    _canonical_pos,
    _in_open_domain,
    canonical_reduce,
    orbit_bfs,
    stabilizer_order,
)


def test_master_rows_are_canonical_distinct_classes():
    m = master_classes(500)
    seen = set(map(tuple, m.reps.tolist()))
    assert len(seen) == len(m)
    # spot-check invariants on a sample
    idx = np.linspace(0, len(m) - 1, 60).astype(int)
    for i in idx:
        rep = tuple(int(t) for t in m.reps[i])
        assert discriminant(rep) == int(m.disc[i])
        assert canonical_reduce(rep) == rep or tuple(canonical_reduce(rep)) in seen
        assert stabilizer_order(rep) == int(m.stab[i])
        assert is_irreducible(rep) == bool(m.irred[i])
        for lat in range(1, 11):
            assert lattice_member(rep, lat) == bool(m.member[i, lat - 1])


def test_master_cache_filters_down():
    big = master_classes(400)
    small = master_classes(150)
    assert small.limit == 150
    assert (np.abs(small.disc) <= 150).all()
    assert len(small) < len(big)


def test_master_workers_deterministic(monkeypatch):
    built = []
    for workers in (1, 2):
        monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})  # a fresh build each
        built.append(master_classes(300, workers=workers))
    a, b = built
    order_a = np.lexsort(a.reps.T)
    order_b = np.lexsort(b.reps.T)
    assert (a.reps[order_a] == b.reps[order_b]).all()


def test_master_pool_size_is_bounded_by_tasks(monkeypatch):
    # no real process: the fake pool records its size and maps serially
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    class SerialContext:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SerialContext)
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    wide = master_classes(100, workers=10 ** 6)
    assert sizes == [len(enumeration._stratum_tasks(100))]
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    serial = master_classes(100, workers=1)
    assert sizes == [len(enumeration._stratum_tasks(100))]  # workers=1 starts no pool
    for name in ("reps", "disc", "stab", "irred", "member"):
        a, b = getattr(wide, name), getattr(serial, name)
        assert a.dtype == b.dtype and (a == b).all(), name


def test_enumerate_classes_examples():
    table = enumerate_classes(1, "+", 1)
    assert len(table) == 1
    assert table.n.tolist() == [1] and table.stab.tolist() == [3]
    assert table.irred.tolist() == [False]

    table = enumerate_classes(1, "-", 23)
    at23 = table.stab[table.n == 23]
    assert len(at23) == 3 and (at23 == 1).all()

    table = enumerate_classes(4, "+", 3)
    total = sum(Fraction(1, stab) for stab in table.stab[table.n == 3].tolist())
    assert total == Fraction(1, 3)


def _oracle_classes(lattice: int, sign: str, max_index: int):
    return brute_force_classes(lattice, sign, max_index, box=16)


@pytest.mark.parametrize(
    "produce", [enumerate_classes, _oracle_classes], ids=["enumeration", "oracle"]
)
@pytest.mark.parametrize(
    "lattice, sign, max_index", [(7, "-", 60), (8, "-", 20)], ids=["L7-", "L8-"]
)
def test_enumerate_classes_sorted_and_in_lattice(produce, lattice, sign, max_index):
    table = produce(lattice, sign, max_index)
    assert (table.lattice, table.sign) == (lattice, sign)
    assert len(table) > 0
    assert table.reps.dtype == np.int64 and table.reps.shape == (len(table), 4)
    keys = list(zip(table.n.tolist(), map(tuple, table.reps.tolist())))
    assert keys == sorted(set(keys))  # sorted by (n, rep), and distinct
    scale = 27 if lattice % 2 == 0 else 1
    for n, rep in keys:
        assert 1 <= n <= max_index
        assert lattice_member(rep, lattice)
        assert discriminant(rep) == (n if sign == "+" else -n) * scale
    # rows() gives the columns, in the table's order, as Python values
    rows = list(table.rows())
    columns = (table.n, table.reps, table.stab, table.irred)
    assert rows == list(zip(*(col.tolist() for col in columns)))
    assert all(type(x) is int for n, rep, stab, _ in rows for x in (n, *rep, stab))
    assert all(type(irred) is bool for _, _, _, irred in rows)


def test_enumerate_classes_bad_args():
    with pytest.raises(ValueError):
        enumerate_classes(1, "x", 10)
    with pytest.raises(ValueError):
        enumerate_classes(1, "+", 0)


def test_enumerate_classes_rejects_lattice_out_of_range():
    for lattice in (0, 11):
        with pytest.raises(ValueError, match="lattice index must be 1..10"):
            enumerate_classes(lattice, "+", 50)


def test_brute_force_rejects_bad_sign_and_lattice():
    with pytest.raises(ValueError, match="sign must be"):
        brute_force_classes(1, "x", 20, box=8)
    with pytest.raises(ValueError, match="lattice index must be 1..10"):
        brute_force_classes(0, "+", 20, box=8)


def test_brute_force_rejects_bad_bounds(monkeypatch):
    def no_scan(box, p_limit, family):
        raise AssertionError("box scan started")

    monkeypatch.setattr(enumeration, "_box_survivors", no_scan)
    for max_index, box, cap, match in (
        (0, 10, None, "max_index must be >= 1"),
        (-5, 10, None, "max_index must be >= 1"),
        (20, 0, None, "box must be >= 1"),
        (20, -3, None, "box must be >= 1"),
        (20, 10, 0, "cap 0 is below the box 10"),
        (20, 10, 9, "cap 9 is below the box 10"),
    ):
        with pytest.raises(ValueError, match=match):
            brute_force_classes(1, "+", max_index, box, cap=cap)


def test_brute_force_stability_cap_covers_its_box(monkeypatch):
    caps = []

    def record_caps(box, p_limit, cap, family, scan_box):
        caps.append((box, cap))
        no_rows = np.empty((0, 4), dtype=np.int64)
        return enumeration.MasterClasses(
            p_limit, no_rows, no_rows[:, 0], no_rows[:, 0], no_rows[:, 0] != 0,
            np.empty((0, 10), dtype=bool),
        )

    monkeypatch.setattr(enumeration, "_group_box_orbits", record_caps)
    brute_force_classes(1, "+", 20, 9, cap=9, check_stability=True)
    brute_force_classes(1, "+", 20, 10, check_stability=True)
    # 1.5 times the cap, but at least the stability box (14 for box 9)
    assert caps == [(9, 9), (14, 14), (10, 40), (15, 60)]


def test_brute_force_tiny():
    table = brute_force_classes(1, "+", 1, box=2)
    assert len(table) == 1 and table.stab.tolist() == [3]


@pytest.mark.parametrize("family, p_limit", [(1, 60), (2, 27 * 12)])
def test_group_box_orbits_reps_are_lexmin_in_box(monkeypatch, family, p_limit):
    box, cap = 12, 48
    monkeypatch.setattr(enumeration, "_ORACLE_CACHE", {})
    monkeypatch.setattr(enumeration, "_SCAN_CACHE", {})
    scan_box = enumeration.stability_box(box)
    orbits = enumeration._group_box_orbits(box, p_limit, cap, family, scan_box)
    assert orbits.limit == p_limit
    assert orbits.reps.dtype == np.int64 and orbits.reps.shape == (len(orbits), 4)
    reps = list(map(tuple, orbits.reps.tolist()))
    # reference: the least in-box form of each closure, found by testing
    # every closure member against the box
    todo = set(map(tuple, enumeration._box_survivors(box, p_limit, family).tolist()))
    want = []
    while todo:
        orbit = orbit_bfs(todo.pop(), cap)
        todo -= orbit
        want.append(min(x for x in orbit if max(map(abs, x)) <= box))
    assert len(reps) > 10
    assert reps == sorted(want)
    # one column entry per rep, as the scalar functions give it
    assert orbits.disc.tolist() == [discriminant(f) for f in reps]
    assert orbits.member.tolist() == [
        [lattice_member(f, lat) for lat in range(1, 11)] for f in reps
    ]
    assert orbits.stab.tolist() == [stabilizer_order(f) for f in reps]
    assert orbits.irred.tolist() == [is_irreducible(f) for f in reps]


def test_brute_force_matches_enumeration_small():
    for lattice, sign, max_index, box in [
        (1, "+", 60, 30),
        (1, "-", 60, 30),
        (5, "-", 100, 30),
        (2, "+", 4, 30),
    ]:
        fast = enumerate_classes(lattice, sign, max_index)
        slow = brute_force_classes(lattice, sign, max_index, box=box)
        a, b = (
            sorted(zip(t.n.tolist(), t.stab.tolist(), t.irred.tolist())) for t in (fast, slow)
        )
        assert a == b, (lattice, sign)


def test_reducible_count_growth():
    # reducible negative-discriminant classes in L1 number ~ (pi^2/12) X
    m = master_classes(50000)
    sel = (m.disc < 0) & ~m.irred
    count = int(sel.sum())
    expect = (np.pi ** 2 / 12) * 50000
    assert abs(count - expect) < 0.05 * expect


def test_json_roundtrip(tmp_path):
    out = tmp_path / "out.txt"
    assert main(["enumerate", "--lattice", "9", "--sign", "pos", "--max", "40",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    table = enumerate_classes(9, "+", 40)
    assert lines[0] == "schema:1" and len(lines) == len(table) + 1 > 1
    for line, n, rep, stab, irred in zip(
        lines[1:], table.n.tolist(), table.reps.tolist(), table.stab.tolist(),
        table.irred.tolist(),
    ):
        d = json.loads(line)
        assert d == {"lattice": 9, "sign": "+", "n": n, "rep": rep, "stab": stab,
                     "irreducible": irred}
        assert discriminant(d["rep"]) == d["n"]


def test_master_matches_unique_reference(monkeypatch, reference_canonical_pos):
    # the P > 0 block is a row-wise np.unique of the reference canonical
    # images of every scanned row, whichever row the stratum keeps
    limit = 20000
    tasks = enumeration._stratum_tasks(limit)
    scan = enumeration._ranges_to_rows(
        [enumeration._pos_scan(a, lim) for kind, a, lim in tasks if kind == "pos"]
    )
    pos = np.unique(reference_canonical_pos(scan), axis=0)
    assert len(pos) < len(scan)  # some orbits are scanned more than once
    results = [enumeration._run_task(t) for t in tasks if t[0] != "pos"]
    blocks = {
        kind: enumeration._ranges_to_rows([r for k, r in results if k == kind])
        for kind in ("negird", "negrd")
    }
    for kind in ("negird", "negrd"):
        assert len(np.unique(blocks[kind], axis=0)) == len(blocks[kind])
    want = np.concatenate([pos, blocks["negird"], blocks["negrd"]])
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    m = master_classes(limit)
    assert m.reps.dtype == want.dtype and m.reps.shape == want.shape
    assert (m.reps == want).all()
    assert (m.disc == discriminant(want.T)).all()


def test_master_positive_block_strictly_increasing(monkeypatch):
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    m = master_classes(20000)
    pos = [tuple(r) for r in m.reps[m.disc > 0].tolist()]
    assert len(pos) == (m.disc > 0).sum() > 0
    assert all(x < y for x, y in zip(pos, pos[1:]))
    # the positive block comes first
    assert (m.disc[: len(pos)] > 0).all()


@pytest.mark.parametrize("kind", ["pos", "negird", "negrd"])
def test_master_rejects_duplicate_rows(monkeypatch, kind):
    run_task = enumeration._run_task

    def doubled(task):
        got_kind, rows = run_task(task)
        if got_kind == kind:
            rows = np.concatenate([rows, rows[:1]])
        return got_kind, rows

    monkeypatch.setattr(enumeration, "_run_task", doubled)
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    with pytest.raises(AssertionError, match="duplicate representatives"):
        master_classes(2000)


@pytest.mark.parametrize("kind", ["pos", "negird", "negrd"])
def test_master_rejects_rows_out_of_order(monkeypatch, kind):
    run_task = enumeration._run_task
    swapped = []

    def swap_first_pair(task):
        got_kind, rows = run_task(task)
        if got_kind == kind and not swapped and len(rows) >= 2:
            rows = rows.copy()
            rows[[0, 1]] = rows[[1, 0]]
            swapped.append((rows[0] != rows[1]).any())
        return got_kind, rows

    monkeypatch.setattr(enumeration, "_run_task", swap_first_pair)
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    with pytest.raises(AssertionError, match="out of order"):
        master_classes(2000)
    assert swapped == [True]  # two distinct rows, nothing else changed


def test_check_increasing_reads_the_first_differing_key():
    for j in range(4):
        rows = np.zeros((2, 4), dtype=np.int64)
        rows[1, j] = 1
        rows[1, j + 1:] = -5  # later keys fall, and must not count
        enumeration._check_increasing(rows.T, "test")
        with pytest.raises(AssertionError, match="out of order in test stratum"):
            enumeration._check_increasing(rows[::-1].T, "test")
        with pytest.raises(AssertionError, match="duplicate representatives"):
            enumeration._check_increasing(rows[[0, 1, 1]].T, "test")
    for n in (0, 1):
        enumeration._check_increasing(np.zeros((n, 4), dtype=np.int64).T, "test")


def _count_a_equal_c(rows: np.ndarray) -> int:
    A, _, C = hessian(rows.T)
    return int((A == C).sum())


@pytest.mark.parametrize("limit", [300_000, 1_000_000])
def test_pos_stratum_matches_scan_reference(limit, reference_pos_stratum):
    # every task, as arrays and in order, against the keep test run on every
    # scan row; the A = C rows occur, and some of them are dropped
    emitted = dropped = 0
    for kind, a, lim in enumeration._stratum_tasks(limit):
        if kind != "pos":
            continue
        got = enumeration._pos_stratum(a, lim)
        want = reference_pos_stratum(a, lim)[::-1]
        assert got.dtype == want.dtype and np.array_equal(got, want), a
        emitted += _count_a_equal_c(got)
        dropped += _count_a_equal_c(enumeration._pos_scan(a, lim)) - _count_a_equal_c(got)
    assert emitted > 0 and dropped > 0


def test_master_matches_sorted_reference(monkeypatch, reference_master):
    # byte-equal to the master whose P > 0 block comes from the keep test on
    # every scan row, ordered by a lexsort
    limit = 300_000
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {})
    m = master_classes(limit)
    want = reference_master(limit)
    for name in ("reps", "disc", "stab", "irred", "member"):
        got, ref = getattr(m, name), getattr(want, name)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name


def test_master_positive_block_is_canonical():
    # each P > 0 row is its own canonical image, so distinct rows are
    # distinct orbits
    m = master_classes(20000)
    pos = m.reps[m.disc > 0]
    assert np.array_equal(_canonical_pos(pos), pos)


def test_master_rejects_limit_past_int64_bound(monkeypatch):
    def no_work(task):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_run_task", no_work)
    # the bound is checked before the cache, even one that would answer
    monkeypatch.setattr(enumeration, "_MASTER_CACHE", {MAX_LIMIT + 2: None})
    with pytest.raises(ValueError, match="int64 safety bound"):
        master_classes(MAX_LIMIT + 1)
    with pytest.raises(ValueError, match="int64 safety bound"):
        enumerate_classes(2, "+", MAX_LIMIT // 27 + 1)


def test_int64_bound_binding_term():
    # the binding intermediate of MAX_LIMIT: 27 p^2 for the reducible row with
    # r = 1 and the largest p; it fits at the bound and not one step past it
    p_max = (MAX_LIMIT + 1) // 4
    assert 27 * p_max ** 2 < 2 ** 63 <= 27 * ((MAX_LIMIT + 2) // 4) ** 2
    row = np.array([[p_max, 1, 1, 0]], dtype=np.int64)
    assert int(discriminant(row.T)[0]) == discriminant((p_max, 1, 1, 0)) == 1 - 4 * p_max


def _grid_survivors(box: int, p_limit: int, family: int) -> np.ndarray:
    """The full-grid reference: every form of [-box, box]^4 (b, c in 3Z for
    family 2) with 1 <= |P| <= p_limit, in lexicographic order."""
    side = np.arange(-box, box + 1, dtype=np.int64)
    bc = side[side % 3 == 0] if family == 2 else side
    rows = np.stack(
        [g.ravel() for g in np.meshgrid(side, bc, bc, side, indexing="ij")], axis=1
    )
    p = np.abs(discriminant(rows.T))
    return rows[(p >= 1) & (p <= p_limit)]


def _lex_rows(rows: np.ndarray) -> np.ndarray:
    return rows[enumeration._lex_order(rows)]


# forms at the peak d = B2 / (2 alpha) of P in d, with |P| = p_limit there:
# P = +p_limit makes the gap between the two d-windows empty (tangent from
# below), P = -p_limit shrinks the outer window to one point.  The peak is
# G = 2b^3 - 9abc + 27a^2 d = 0, so at P = -p_limit the identity
# 27 a^2 P = 4 H^3 - G^2 gives 4 (-H)^3 = 27 a^2 p_limit: the scan's Hessian
# cut H >= -h0 holds with equality there.
TANGENT_CASES = (
    ((2, -3, 1, 0), 1, 1),
    ((1, -6, 11, -6), 4, 1),
    ((1, -3, 4, -2), 4, 1),
    ((1, 0, 1, 0), 4, 1),
    ((2, 0, 1, 0), 8, 1),
    ((2, -3, 3, -1), 27, 2),
)


def test_tangent_cases_sit_at_the_peak():
    for (a, b, c, d), p_limit, family in TANGENT_CASES:
        assert 18 * a * b * c - 4 * b ** 3 == 2 * 27 * a * a * d  # B2 = 2 alpha d
        assert abs(discriminant((a, b, c, d))) == p_limit
        assert family == 1 or b % 3 == c % 3 == 0


def test_box_survivors_match_full_grid():
    for box, p_limit, family in (
        (3, 1, 1), (6, 4, 1), (4, 8, 1), (9, 27, 1), (12, 300, 1),
        (4, 1, 2), (6, 27, 2), (9, 4, 2), (12, 300, 2),
    ):
        got = enumeration._box_survivors(box, p_limit, family)
        assert len(np.unique(got, axis=0)) == len(got), (box, p_limit, family)
        want = _grid_survivors(box, p_limit, family)
        assert np.array_equal(_lex_rows(got), want), (box, p_limit, family)
        rows = set(map(tuple, got.tolist()))
        for f, limit, fam in TANGENT_CASES:
            if (limit, fam) == (p_limit, family) and max(map(abs, f)) <= box:
                assert f in rows and tuple(-t for t in f) in rows


def test_tangent_cases_bind_the_hessian_cut():
    for (a, b, c, d), p_limit, _ in TANGENT_CASES:
        if discriminant((a, b, c, d)) == -p_limit:
            assert 3 * a * c == b * b + enumeration._hessian_floor(a, p_limit)


def test_hessian_identity_on_big_ints():
    # 27 a^2 P = 4 H^3 - G^2 with H the Hessian's A, G = 2b^3 - 9abc + 27a^2 d
    r = random.Random(27)
    for bits in (4, 20, 70, 200):
        for _ in range(50):
            a, b, c, d = (r.randint(-(2 ** bits), 2 ** bits) for _ in range(4))
            H = hessian((a, b, c, d)).A
            G = 2 * b ** 3 - 9 * a * b * c + 27 * a * a * d
            assert 27 * a * a * discriminant((a, b, c, d)) == 4 * H ** 3 - G * G


def _ref_hessian_floor(a: int, p_limit: int) -> int:
    """max{h >= 0 : 4 h^3 <= 27 a^2 p_limit}, by bisection in Python ints."""
    n = 27 * a * a * p_limit
    lo, hi = 0, 1
    while 4 * hi ** 3 <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if 4 * mid ** 3 <= n else (lo, mid)
    return lo


def test_hessian_floor_exact_near_cubes():
    # 4 * 3^3 = 27 * 2^2 * 1: the bound is met exactly
    assert enumeration._hessian_floor(2, 1) == 3
    assert enumeration._hessian_floor(1, 4) == 3 and enumeration._hessian_floor(1, 3) == 2
    assert enumeration._hessian_floor(2, 8) == 6 and enumeration._hessian_floor(2, 7) == 5
    # h0 steps up to h where 27 a^2 p_limit passes 4 h^3
    for a in (1, 2, 3, 7, 150, enumeration.MAX_BOX):
        limits = {1, MAX_LIMIT}
        for h in (1, 2, 3, 10, 999, 10 ** 4, 123_456, 200_000):
            step = 4 * h ** 3 // (27 * a * a)
            limits |= {p for p in (step - 1, step, step + 1) if 1 <= p <= MAX_LIMIT}
        for p_limit in sorted(limits):
            assert enumeration._hessian_floor(a, p_limit) == _ref_hessian_floor(a, p_limit)


def test_box_scan_cut_is_exactly_the_hessian_bound(monkeypatch):
    # the (b, c) pairs handed to _d_windows at a >= 1 are exactly those with
    # 4 max(-H, 0)^3 <= 27 a^2 p_limit, i.e. H >= -h0
    handed = []
    d_windows = enumeration._d_windows

    def spy(a, b, c, lo, hi):
        handed.append((a, b.tolist(), c.tolist()))
        return d_windows(a, b, c, lo, hi)

    monkeypatch.setattr(enumeration, "_d_windows", spy)
    binding = 0
    for box, p_limit, family in ((6, 4, 1), (7, 8, 1), (9, 27, 2), (10, 300, 1)):
        handed.clear()
        enumeration._box_survivors(box, p_limit, family)
        side = [v for v in range(-box, box + 1) if family == 1 or v % 3 == 0]
        assert [a for a, _, _ in handed] == list(range(box + 1))
        for a, b, c in handed[1:]:
            want = [
                (bv, cv) for bv in side for cv in side
                if 4 * max(3 * a * cv - bv * bv, 0) ** 3 <= 27 * a * a * p_limit
            ]
            assert list(zip(b, c)) == want, (box, p_limit, family, a)
            h0 = enumeration._hessian_floor(a, p_limit)
            binding += sum(3 * a * cv == bv * bv + h0 for bv, cv in want)
    assert binding > 0  # pairs on the bound itself were kept


def test_box_survivors_filter_from_the_stability_box():
    for box, p_limit, family in ((8, 300, 1), (12, 27, 1), (10, 300, 2)):
        big = enumeration._box_survivors(enumeration.stability_box(box), p_limit, family)
        inside = big[(np.abs(big) <= box).all(axis=1)]
        got = enumeration._box_survivors(box, p_limit, family)
        assert np.array_equal(_lex_rows(inside), _lex_rows(got)), (box, p_limit, family)


def test_isqrt64_exact_near_squares():
    top = isqrt(2 ** 63 - 1) - 1  # (top + 1)^2 < 2^63
    ks = [1, 2, 3, 1000, 94906265, 2 ** 31, top - 1000, top - 1, top]
    ns = [k * k + off for k in ks for off in (-1, 0, 1, 2 * k)]
    got = _isqrt64(np.array(ns, dtype=np.int64))
    assert got.tolist() == [isqrt(n) for n in ns]


def test_scan_windows_exact_at_the_box_bound():
    box = enumeration.MAX_BOX
    worst = enumeration._scan_window_bound(box, MAX_LIMIT)
    # the worst case of B2^2 + 4 alpha (C2 + L), in Python ints
    a, b, c = box, box, -box
    B2, C2 = 18 * a * b * c - 4 * b ** 3, b * b * c * c - 4 * a * c ** 3
    assert B2 * B2 + 4 * 27 * a * a * (C2 + MAX_LIMIT) == worst
    assert (isqrt(worst) + 1) ** 2 < 2 ** 63
    over = enumeration._scan_window_bound(box + 1, MAX_LIMIT)
    assert (isqrt(over) + 1) ** 2 >= 2 ** 63
    # the int64 windows there are exact: P(d) is checked in Python ints at
    # both sides of every window end
    col = lambda v: np.array([v], dtype=np.int64)
    (lo1, hi1), (lo2, hi2) = (
        (int(lo[0]), int(hi[0])) for lo, hi in _d_windows(a, col(b), col(c), -MAX_LIMIT, MAX_LIMIT)
    )
    P = lambda d: discriminant((a, b, c, d))
    assert lo1 <= hi1 < lo2 <= hi2
    assert P(lo1 - 1) < -MAX_LIMIT <= P(lo1) and P(hi2) >= -MAX_LIMIT > P(hi2 + 1)
    assert P(hi1) <= MAX_LIMIT < P(hi1 + 1) and P(lo2 - 1) > MAX_LIMIT >= P(lo2)


def test_brute_force_rejects_box_past_int64_bound(monkeypatch):
    def no_scan(box, p_limit, family):
        raise AssertionError("box scan started")

    monkeypatch.setattr(enumeration, "_box_survivors", no_scan)
    box = enumeration.MAX_BOX
    with pytest.raises(ValueError, match="int64 safety bound"):
        brute_force_classes(1, "+", 1, box=box + 1)
    # with the stability check the scan is at (3 box + 1) // 2
    stable = 2 * box // 3
    assert enumeration.stability_box(stable) == box
    with pytest.raises(ValueError, match="int64 safety bound"):
        brute_force_classes(1, "+", 1, box=stable + 1, check_stability=True)
    with pytest.raises(ValueError, match="int64 safety bound"):
        brute_force_classes(1, "+", MAX_LIMIT + 1, box=2)
    # at the bound the scan starts
    with pytest.raises(AssertionError, match="box scan started"):
        brute_force_classes(1, "+", 1, box=box)
    with pytest.raises(AssertionError, match="box scan started"):
        brute_force_classes(1, "+", 1, box=stable, check_stability=True)


def _brute_d_windows(a: int, b: int, c: int, lo: int, hi: int) -> list:
    """The d with lo <= P(a, b, c, d) <= hi, by scanning every d that can
    reach |P| <= m = max(|lo|, |hi|): for a >= 1, 27 a^2 d^2 <= |B2| |d| +
    |C2| + m; for a = 0 (b >= 1), 4 b^3 |d| <= |C2| + m."""
    B2, C2 = 18 * a * b * c - 4 * b ** 3, b * b * c * c - 4 * a * c ** 3
    m = max(abs(lo), abs(hi))
    if a:
        alpha = 27 * a * a
        reach = abs(B2) // alpha + isqrt((abs(C2) + m) // alpha + 1) + 2
    else:
        reach = (abs(C2) + m) // (4 * b ** 3) + 2
    return [d for d in range(-reach, reach + 1) if lo <= discriminant((a, b, c, d)) <= hi]


def test_d_windows_match_brute_d_scan():
    rng = np.random.default_rng(0)
    triples = [f[:3] for f, _, _ in TANGENT_CASES]
    for _ in range(300):
        a = int(rng.integers(0, 7))
        b = int(rng.integers(1 if a == 0 else -15, 16))
        triples.append((a, b, int(rng.integers(-15, 16))))
    col = lambda v: np.array([v], dtype=np.int64)
    for limit in (1, 4, 27, 300):
        for lo, hi in ((-limit, -1), (1, limit), (-limit, limit)):
            for a, b, c in triples:
                (lo1, hi1), (lo2, hi2) = (
                    (int(w_lo[0]), int(w_hi[0]))
                    for w_lo, w_hi in _d_windows(a, col(b), col(c), lo, hi)
                )
                assert lo1 > hi1 or lo2 > hi2 or hi1 < lo2, (a, b, c, lo, hi)
                got = list(range(lo1, hi1 + 1)) + list(range(lo2, hi2 + 1))
                assert got == _brute_d_windows(a, b, c, lo, hi), (a, b, c, lo, hi)


def _box_reference(a: int, b_max: int, c_max: int, d_max: int, keep) -> np.ndarray:
    """The rows (a, b, c, d) of the box |b| <= b_max, |c| <= c_max,
    |d| <= d_max that keep(rows) accepts, in lexicographic order; every row
    kept lies strictly inside the box, so the box is large enough."""
    span = lambda m: np.arange(-m, m + 1, dtype=np.int64)
    b, c, d = (g.ravel() for g in np.meshgrid(span(b_max), span(c_max), span(d_max), indexing="ij"))
    rows = np.stack([np.full(len(b), a, dtype=np.int64), b, c, d], axis=1)
    rows = rows[keep(rows)]
    assert (np.abs(rows[:, 1:]) < [b_max, c_max, d_max]).all(), a
    return rows


def test_strata_rows_match_box_reference():
    limit = 500
    tasks = enumeration._stratum_tasks(limit)

    def weakly_reduced(rows):
        A, B, C = hessian(rows.T)
        p = discriminant(rows.T)
        keep = (abs(B) <= A) & (A <= C) & (p >= 1) & (p <= limit)
        return keep & ((rows[:, 0] > 0) | (rows[:, 1] > 0))

    def root_reduced_irreducible(rows):
        p = discriminant(rows.T)
        keep = (p < 0) & (p >= -limit) & _in_open_domain(rows.T)
        keep[keep] = [is_irreducible(tuple(f)) for f in rows[keep].tolist()]
        return keep

    pos = [a for kind, a, _ in tasks if kind == "pos"]
    neg = [a for kind, a, _ in tasks if kind == "negird"]
    assert pos[0] == 0 and neg[0] == 1
    for a in pos:
        want = _box_reference(a, 16, 40, limit // 4 + 8 if a == 0 else 40, weakly_reduced)
        assert np.array_equal(enumeration._pos_scan(a, limit), want), a
    for a in neg:
        want = _box_reference(a, 16, 40, 60, root_reduced_irreducible)
        assert np.array_equal(enumeration._neg_ird_stratum(a, limit), want), a
    # past the tasks' a there is nothing
    assert len(_box_reference(pos[-1] + 1, 16, 40, 40, weakly_reduced)) == 0
    assert len(_box_reference(neg[-1] + 1, 16, 40, 60, root_reduced_irreducible)) == 0


def test_pos_stratum_matches_box_reference(reference_canonical_pos):
    # the negations of the box rows that are weakly reduced, in range and
    # whose negation is the 20-matrix lex-min image, in order
    limit = 500

    def negation_canonical(rows):
        A, B, C = hessian(rows.T)
        p = discriminant(rows.T)
        keep = (abs(B) <= A) & (A <= C) & (p >= 1) & (p <= limit)
        keep &= (rows[:, 0] > 0) | (rows[:, 1] > 0)
        keep[keep] = (reference_canonical_pos(-rows[keep]) == -rows[keep]).all(axis=1)
        return keep

    total = 0
    for kind, a, _ in enumeration._stratum_tasks(limit):
        if kind == "pos":
            d_max = limit // 4 + 8 if a == 0 else 40
            want = -_box_reference(a, 16, 40, d_max, negation_canonical)[::-1]
            assert np.array_equal(enumeration._pos_stratum(a, limit), want), a
            total += len(want)
    assert total == (master_classes(limit).disc > 0).sum() > 0


def test_strata_windows_exact_at_max_limit():
    # n = B2^2 + 4 alpha (|C2| + L) bounds every int64 intermediate of
    # _d_windows; the strata need (isqrt(n) + 1)^2 < 2^63 over their (b, c)
    # windows at L = MAX_LIMIT.  At fixed (a, b), B2 is linear in c, and
    # C2 = b^2 c^2 - 4 a c^3 has its extrema at c = 0 and c = b^2 / (6a), so
    # |B2| and |C2| peak at a window end or next to those points.
    worst = {}
    for kind, a, _ in enumeration._stratum_tasks(MAX_LIMIT):
        if kind == "pos":
            windows = enumeration._pos_bc_windows(a, MAX_LIMIT)
        elif kind == "negird":
            windows = enumeration._neg_ird_bc_windows(a, MAX_LIMIT)
        else:
            continue
        for b, c_lo, c_hi in zip(*(w.tolist() for w in windows)):
            inner = (0, b * b // (6 * a), b * b // (6 * a) + 1) if a else (0,)
            cs = [c_lo, c_hi] + [c for c in inner if c_lo <= c <= c_hi]
            B2 = max(abs(18 * a * b * c - 4 * b ** 3) for c in cs)
            C2 = max(abs(b * b * c * c - 4 * a * c ** 3) for c in cs)
            n = B2 * B2 + 4 * 27 * a * a * (C2 + MAX_LIMIT)
            worst[kind] = max(worst.get(kind, 0), n)
    assert (isqrt(worst["negird"]) + 1) ** 2 < 2 ** 63
    assert (isqrt(worst["pos"]) + 1) ** 2 < 2 ** 63
    # the figures quoted beside MAX_LIMIT
    assert 2.4e18 < worst["negird"] < 2.5e18 and 1.6e16 < worst["pos"] < 1.7e16
