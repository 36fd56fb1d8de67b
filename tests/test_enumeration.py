import argparse
import gc
import io
import json
import random
import re
import warnings
import weakref
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from cubicforms import (
    brute_force_classes,
    density_report,
    discriminant,
    enumerate_classes,
    hessian,
    is_irreducible,
    lattice_member,
    master_classes,
)
from cubicforms import analytic, cli, enumeration, series
from cubicforms.cli import main, verify_oracle
from cubicforms.enumeration import MAX_LIMIT
from cubicforms.forms import _ceil_div, _d_windows, _isqrt64, index_scale, sublattice_of
from cubicforms.forms import rational_roots
from cubicforms.series import _verify_master, count_orbits
from cubicforms.reduction import (
    _canonical_pos,
    _in_open_domain,
    _lesser_of_pair,
    _s2_above_one,
    canonical_reduce,
    orbit_bfs,
    stabilizer_order,
)


def _unit_rows(task) -> np.ndarray:
    """The rows the orbit stream emits for one stratum unit, its chunks
    (enumeration._stratum_chunks) joined."""
    return enumeration._ranges_to_rows([rows for _, rows in enumeration._stratum_chunks([task])])


def _chunks_changed(change):
    """A stand-in for enumeration._stratum_chunks that passes each chunk's
    (unit, rows) through change, which returns the rows to yield."""
    stratum_chunks = enumeration._stratum_chunks

    def changed(tasks):
        for task, rows in stratum_chunks(tasks):
            yield task, change(task, rows)

    return changed


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


def test_master_cache_filters_down(fresh_verify_memo):
    # the verify suites' memo hands a smaller limit its master whole, and a
    # selection from it reads only the rows with |P| <= the smaller limit
    big = _verify_master(400, 1)
    assert _verify_master(150, 1) is big and fresh_verify_memo == {1: big}
    assert big.limit == 400
    for sign in "+-":
        rows, n = big.select(1, sign, 150)
        keep = np.abs(big.disc) <= 150
        keep &= (big.disc > 0) == (sign == "+")
        assert 0 < keep.sum() < len(big)
        assert rows.tolist() == np.flatnonzero(keep).tolist()
        assert n.tolist() == np.abs(big.disc[keep]).tolist()


@pytest.mark.parametrize("limit", [2000, 10 ** 5])
def test_master_selection_is_the_full_master_masked(reference_plan, shared_master, limit):
    # the stream of each sign (None: both), its chunks joined, is byte- and
    # dtype-equal in all five columns to the rows of that sign of the full
    # master, in L1 and in L2
    for sublattice in (1, 2):
        full = shared_master(limit, sublattice=sublattice)
        for sign in (None, "+", "-"):
            keep = (full.disc > 0) == (sign == "+") if sign else np.ones(len(full), dtype=bool)
            assert keep.any() and (sign is None or not keep.all())
            got = _stream_master(reference_plan, limit, sign, sublattice)
            assert (got.limit, got.sign, got.sublattice) == (limit, sign, sublattice)
            for name in enumeration._COLUMNS:
                have, want = getattr(got, name), getattr(full, name)[keep]
                assert (have.dtype, have.shape) == (want.dtype, want.shape), (sign, name)
                assert have.tobytes() == want.tobytes(), (sign, name)


def test_master_cache_serves_what_it_covers(monkeypatch, fresh_verify_memo):
    # the verify suites' memo (series._verify_master) keeps one two-sign
    # master per sublattice, the largest built: a smaller limit gets that
    # master and builds nothing, and its selections are the rows with
    # |P| <= limit; a larger one replaces it, and a build in one sublattice
    # leaves the other
    builds = []  # (limit, step) per build
    stratum_tasks = enumeration._stratum_tasks

    def recording(limit, step=1):
        builds.append((limit, step))
        return stratum_tasks(limit, step)

    monkeypatch.setattr(enumeration, "_stratum_tasks", recording)
    memo = fresh_verify_memo
    full = _verify_master(3000, 1)
    assert _verify_master(3000, 1) is full
    assert _verify_master(1000, 1) is full
    assert builds == [(3000, 1)] and memo == {1: full}
    assert (full.limit, full.sign, full.sublattice) == (3000, None, 1)
    keep = np.abs(full.disc) <= 1000
    assert 0 < keep.sum() < len(full)
    for lattice in (1, 3):
        rows = np.concatenate([full.select(lattice, sign, 1000)[0] for sign in "+-"])
        want = np.flatnonzero(keep & full.member[:, lattice - 1])
        assert np.sort(rows).tolist() == want.tolist(), lattice
    l2 = _verify_master(27 * 300, 2)  # an L1 master serves no L2 request
    assert builds == [(3000, 1), (8100, 3)] and memo == {1: full, 2: l2}
    assert (l2.disc > 0).any() and (l2.disc < 0).any()
    bigger = _verify_master(4000, 1)  # an L1 build leaves the L2 master in place
    assert builds[-1] == (4000, 1) and memo == {1: bigger, 2: l2}
    assert bigger.reps[np.abs(bigger.disc) <= 3000].tobytes() == full.reps.tobytes()
    _verify_master(2000, 2)
    _verify_master(3000, 1)
    assert len(builds) == 3


def test_enumerate_builds_only_its_own_sign(monkeypatch, fresh_verify_memo):
    # each of the oracle's 20 pairs at max_index 300 streams only its sign's
    # tasks, at |P| <= 300 in L1 and (step 3) at 27 * 300 in L2, and builds
    # no master; the oracle builds exactly two, one per sublattice
    pairs = [(lattice, sign) for lattice in range(1, 11) for sign in ("+", "-")]
    runs = []  # (limit, step, the kinds of the chunks made) per task list
    stratum_tasks = enumeration._stratum_tasks

    def tasks_of(limit, step=1):
        runs.append((limit, step, set()))
        return stratum_tasks(limit, step)

    def recording(task, rows):
        runs[-1][2].add(task[0])
        return rows

    monkeypatch.setattr(enumeration, "_stratum_tasks", tasks_of)
    monkeypatch.setattr(enumeration, "_stratum_chunks", _chunks_changed(recording))
    neg = {"negird", "negrd"}
    for lattice, sign in pairs:
        runs.clear()
        enumerate_classes(lattice, sign, 300)
        limit, step = 300 * index_scale(lattice), 3 if lattice % 2 == 0 else 1
        assert runs == [(limit, step, {"pos"} if sign == "+" else neg)], (lattice, sign)
    assert not fresh_verify_memo
    runs.clear()
    assert verify_oracle(300, 100).passed
    assert runs == [(300, 1, {"pos"} | neg), (8100, 3, {"pos"} | neg)]
    assert set(fresh_verify_memo) == {1, 2}


def test_enumerate_tables_equal_full_master_cuts():
    # every pair at max_index 2000, streamed from the tasks of its sign,
    # byte-equal to the table the oracle's check cuts from the shared master
    # of the pair's sublattice (cli.verify_oracle)
    full = {sub: master_classes(2000 * index_scale(sub), sublattice=sub) for sub in (1, 2)}
    for lattice in range(1, 11):
        for sign in ("+", "-"):
            got = enumerate_classes(lattice, sign, 2000)
            want = enumeration._class_table([full[sublattice_of(lattice)]], lattice, sign, 2000)
            assert len(got) > 0
            for name in ("n", "reps", "stab", "irred"):
                have, ref = getattr(got, name), getattr(want, name)
                assert (have.dtype, have.shape) == (ref.dtype, ref.shape), (lattice, sign, name)
                assert have.tobytes() == ref.tobytes(), (lattice, sign, name)


_COLUMNS = ("reps", "disc", "stab", "irred", "member")


def _stream_master(plan, limit: int, sign, sublattice: int = 1) -> enumeration.MasterClasses:
    """The chunks of the _task_orbits stream of the units of the sign (None:
    every unit) that plan (the reference_plan fixture) keeps, their columns
    joined into one MasterClasses that records the sign.  At any limit: a
    pair stream (_pair_stream) runs at a multiple of its index scale only."""
    tasks = plan(enumeration._stratum_tasks(limit, enumeration._STEPS[sublattice]), sign)
    chunks = list(enumeration._task_orbits(tasks, limit, sign, sublattice))
    cols = [np.concatenate([getattr(c, name) for c in chunks]) for name in enumeration._COLUMNS]
    return enumeration.MasterClasses(limit, *cols, sign, sublattice)


@pytest.mark.parametrize("limit", [10 ** 5, 10 ** 6])
def test_l2_master_is_the_full_master_l2_rows(reference_plan, shared_master, limit):
    # the L2 master (step 3 strata) and the L2 stream of each sign,
    # byte-equal in all five columns to the full L1 master's rows with
    # 3 | x2, x3
    full = shared_master(limit)
    in_l2 = (full.reps[:, 1] % 3 == 0) & (full.reps[:, 2] % 3 == 0)
    assert (in_l2 == full.member[:, 1]).all()
    for sign in (None, "+", "-"):
        if sign is None:
            got = shared_master(limit, sublattice=2)
        else:
            got = _stream_master(reference_plan, limit, sign, 2)
        assert (got.limit, got.sign, got.sublattice) == (limit, sign, 2)
        keep = in_l2.copy()
        if sign is not None:
            keep &= (full.disc > 0) == (sign == "+")
        assert keep.any()
        for name in _COLUMNS:
            have, want = getattr(got, name), getattr(full, name)[keep]
            assert (have.dtype, have.shape) == (want.dtype, want.shape), (sign, name)
            assert have.tobytes() == want.tobytes(), (sign, name)


def test_select_rejects_odd_lattice_on_l2_master():
    l2 = master_classes(2700, sublattice=2)
    for lattice in (1, 3, 5, 7, 9):
        with pytest.raises(ValueError, match="holds L2 only"):
            l2.select(lattice, "+", 100)
    full = master_classes(2700)
    for lattice in (2, 4, 6, 8, 10):
        for sign in ("+", "-"):
            rows, n = l2.select(lattice, sign, 100)
            want_rows, want_n = full.select(lattice, sign, 100)
            assert len(rows) and l2.reps[rows].tobytes() == full.reps[want_rows].tobytes()
            assert n.tobytes() == want_n.tobytes()


def test_master_rejects_bad_sublattice_before_build(monkeypatch):
    def no_work(tasks):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    for sublattice in (0, 3, 4, "2", None):
        with pytest.raises(ValueError, match="sublattice must be 1 or 2"):
            master_classes(1000, sublattice=sublattice)


def test_master_sublattice_is_keyword_only():
    # True == 1 would pass the sublattice check, so a positional third
    # argument must fail rather than build L1
    for args in ((1000, True), (1000, 2), (1000, "+")):
        with pytest.raises(TypeError):
            master_classes(*args)


@pytest.mark.parametrize(
    "selection",
    [{}, {"sign": "+"}, {"sign": "-"}, {"sublattice": 2}, {"sign": "-", "sublattice": 2}],
)
def test_select_is_the_per_row_rule(reference_plan, selection):
    # every pair, on the full L1 and L2 masters and on the one-sign streams:
    # the rows of sign +- in the lattice with 1 <= |P| // scale <= max_index,
    # row by row
    if "sign" in selection:
        m = _stream_master(reference_plan, 2000, selection["sign"], selection.get("sublattice", 1))
    else:
        m = master_classes(2000, **selection)
    disc = m.disc.tolist()
    reps = m.reps.tolist()
    for lattice in range(1, 11):
        if m.sublattice not in (1, sublattice_of(lattice)):
            continue
        scale = 27 if lattice % 2 == 0 else 1
        member = [lattice_member(f, lattice) for f in reps]
        for sign in ("+", "-"):
            if m.sign not in (None, sign):
                continue
            for max_index in (1, 7, 2000 // scale):
                want = [
                    i for i, p in enumerate(disc)
                    if (p > 0) == (sign == "+") and member[i]
                    and 1 <= abs(p) // scale <= max_index
                ]
                rows, n = m.select(lattice, sign, max_index)
                assert rows.tolist() == want, (lattice, sign, max_index)
                assert n.tolist() == [abs(disc[i]) // scale for i in want]
                assert n.dtype == np.int64
            assert len(m.select(lattice, sign, 2000 // scale)[0]) > 0


def test_select_floors_the_index_on_any_columns():
    # columns no stratum makes (P = 0, P not a multiple of 27 in every
    # lattice): the index is still |P| // scale, and n = 0 is left out
    # residue row 0 (every coefficient divisible by 6) lies in every lattice
    disc = np.arange(-3000, 3001, dtype=np.int64)
    m = enumeration.MasterClasses(
        3000, np.zeros((len(disc), 4), dtype=np.int64), disc, np.ones(len(disc), dtype=np.int8),
        disc != 0, np.zeros(len(disc), dtype=np.uint16),
    )
    assert m.member.all()
    for lattice, max_index in ((1, 3000), (1, 5), (2, 111), (2, 1)):
        scale = 27 if lattice == 2 else 1
        for sign in ("+", "-"):
            rows, n = m.select(lattice, sign, max_index)
            want = [
                i for i, p in enumerate(disc.tolist())
                if (p > 0) == (sign == "+") and 1 <= abs(p) // scale <= max_index
            ]
            assert rows.tolist() == want
            assert n.tolist() == [abs(int(disc[i])) // scale for i in want]


def test_select_rejects_a_sign_the_master_lacks():
    # a chunk of a one-sign stream holds no row of the other sign; it may not
    # answer 0
    for sign, other in (("+", "-"), ("-", "+")):
        chunks = [c for c in enumeration._pair_stream(1, sign, 300) if len(c)]
        assert chunks
        for m in chunks:
            rows, _ = m.select(1, sign, 300)
            assert rows.tolist() == list(range(len(m)))
            with pytest.raises(ValueError, match=re.escape(f"holds the sign {sign!r} only")):
                m.select(1, other, 300)


def test_select_rejects_bad_arguments():
    m = master_classes(300)
    for args, match in (
        ((1, "+", 0), "max_index must be >= 1"),
        ((1, "-", -2), "max_index must be >= 1"),
        ((1, "+", 301), "past the master's 300"),
        ((2, "-", 12), "past the master's 300"),
        ((1, "x", 10), "sign must be"),
        ((0, "+", 10), "lattice index must be 1..10"),
    ):
        with pytest.raises(ValueError, match=match):
            m.select(*args)
    # up to the limit it answers: 300 = 1 * 300 and 297 = 27 * 11
    assert m.select(1, "+", 300)[1].max() == 300
    assert len(m.select(2, "-", 11)[0]) > 0


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

    # |P| <= 1 runs no P < 0 task: an empty stream gives empty typed columns
    assert list(enumeration._pair_stream(1, "-", 1)) == []
    table = enumerate_classes(1, "-", 1)
    assert len(table) == 0 and table.reps.shape == (0, 4)
    assert [col.dtype for col in (table.n, table.reps, table.stab, table.irred)] == [
        np.int64, np.int64, np.int8, np.bool_
    ]


def _oracle_classes(lattice: int, sign: str, max_index: int):
    return brute_force_classes(lattice, sign, max_index, box=16)


@pytest.mark.parametrize(
    "produce", [enumerate_classes, _oracle_classes], ids=["enumeration", "oracle"]
)
@pytest.mark.parametrize(
    "lattice, sign, max_index", [(7, "-", 60), (8, "-", 20)], ids=["L7-", "L8-"]
)
def test_enumerate_classes_sorted_and_in_lattice(class_rows, produce, lattice, sign, max_index):
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
    # class_rows gives the columns, in the table's order, as Python values
    rows = list(class_rows(table))
    columns = (table.n, table.reps, table.stab, table.irred)
    assert rows == list(zip(*(col.tolist() for col in columns)))
    assert all(type(x) is int for n, rep, stab, _ in rows for x in (n, *rep, stab))
    assert all(type(irred) is bool for _, _, _, irred in rows)


def test_float_bounds_raise_type_error_with_a_warm_cache(fresh_verify_memo):
    # limit, max_index and box are read through operator.index: a float
    # raises TypeError also where the verify suites' memoised master could
    # answer it, and a numpy integer is read as the int it holds
    master = _verify_master(10 ** 4, 1)
    assert _verify_master(np.int64(10 ** 4), 1) is master
    for limit in (1e4, 5e3):
        for build in (master_classes, lambda limit: _verify_master(limit, 1)):
            with pytest.raises(TypeError):
                build(limit)
    with pytest.raises(TypeError):
        enumerate_classes(1, "+", 5e3)
    with pytest.raises(TypeError):
        master.select(1, "+", 10.5)
    for max_index, box in ((20.0, 8), (20, 8.0)):
        with pytest.raises(TypeError):
            brute_force_classes(1, "+", max_index, box)


def test_enumerate_classes_bad_args():
    with pytest.raises(ValueError):
        enumerate_classes(1, "x", 10)
    with pytest.raises(ValueError):
        enumerate_classes(1, "+", 0)


def test_enumerate_classes_rejects_lattice_out_of_range():
    for lattice in (0, 11):
        with pytest.raises(ValueError, match="lattice index must be 1..10"):
            enumerate_classes(lattice, "+", 50)


def test_lattice_is_read_as_an_index_before_any_build(monkeypatch):
    # lattice is read through operator.index, like limit and max_index: a
    # float raises TypeError and an index outside 1..10 ValueError, before
    # any stratum task or box scan runs; a numpy integer is the int it holds
    def no_work(*args):
        raise AssertionError("stratum work or box scan started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    monkeypatch.setattr(enumeration, "_box_survivors", no_work)
    disc = np.array([5, -27], dtype=np.int64)
    m = enumeration.MasterClasses(
        100, np.zeros((2, 4), dtype=np.int64), disc, np.ones(2, dtype=np.int8), disc > 0,
        np.zeros(2, dtype=np.uint16),
    )
    for lattice, error in ((1.0, TypeError), (2.0, TypeError), (0, ValueError), (11, ValueError)):
        for call in (
            lambda: enumerate_classes(lattice, "+", 10),
            lambda: brute_force_classes(lattice, "+", 10, box=8),
            lambda: density_report(lattice, "+", 10),
            lambda: lattice_member((1, 0, 0, 1), lattice),
            lambda: m.select(lattice, "-", 3),
        ):
            with pytest.raises(error):
                call()
    assert m.select(np.int64(2), "-", 1)[0].tolist() == [1]
    assert lattice_member((1, 0, 0, 1), np.int64(2)) is True


def test_brute_force_rejects_bad_sign_and_lattice():
    with pytest.raises(ValueError, match="sign must be"):
        brute_force_classes(1, "x", 20, box=8)
    with pytest.raises(ValueError, match="lattice index must be 1..10"):
        brute_force_classes(0, "+", 20, box=8)


def test_brute_force_rejects_bad_bounds(monkeypatch):
    def no_scan(box, p_limit, family):
        raise AssertionError("box scan started")

    monkeypatch.setattr(enumeration, "_box_survivors", no_scan)
    for max_index, box, match in (
        (0, 10, "max_index must be >= 1"),
        (-5, 10, "max_index must be >= 1"),
        (20, 0, "box must be >= 1"),
        (20, -3, "box must be >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            brute_force_classes(1, "+", max_index, box)


def test_brute_force_stability_cap_covers_its_box(monkeypatch):
    # every call, with no option, scans once at the stability box
    # (3 * box + 1) // 2 and groups that scan twice: at box with the cap
    # 4 * box, then at the stability box with the cap 6 * box
    scans, caps = [], []
    box_survivors = enumeration._box_survivors

    def scanning(box, p_limit, family):
        scans.append(box)
        return box_survivors(box, p_limit, family)

    def record_caps(survivors, box, p_limit, cap, family):
        caps.append((box, cap))
        no_rows = np.empty((0, 4), dtype=np.int64)
        return enumeration.MasterClasses(
            p_limit, no_rows, no_rows[:, 0], no_rows[:, 0].astype(np.int8), no_rows[:, 0] != 0,
            no_rows[:, 0].astype(np.uint16),
        )

    monkeypatch.setattr(enumeration, "_box_survivors", scanning)
    monkeypatch.setattr(enumeration, "_group_box_orbits", record_caps)
    for box in (1, 9, 10):
        brute_force_classes(1, "+", 4, box)  # 4 * 1: the reach of box 1
    assert scans == [2, 14, 15]
    assert caps == [(1, 4), (2, 6), (9, 36), (14, 54), (10, 40), (15, 60)]


def test_brute_force_refuses_an_index_past_four_boxes(monkeypatch):
    # (9, 3, 3, 0), of index 33 = 4 * 8 + 1 in L2-, has no form in the box
    # [-8, 8]^4 (enumeration._check_reach): the oracle at box 8 refuses
    # index 33 before any scan, where it would lack that class
    fast = enumerate_classes(2, "-", 33)
    assert (33, (9, 3, 3, 0)) in zip(fast.n.tolist(), map(tuple, fast.reps.tolist()))
    assert fast.class_multiset().count((33, 1, False)) == 1
    scans = []
    box_survivors = enumeration._box_survivors

    def scanning(box, p_limit, family):
        scans.append(box)
        return box_survivors(box, p_limit, family)

    monkeypatch.setattr(enumeration, "_box_survivors", scanning)
    with pytest.raises(ValueError, match=r"index 33 exceeds 4 \* box = 32, the oracle's reach"):
        brute_force_classes(2, "-", 33, 8)
    assert scans == []
    # one index lower, the two agree with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slow = brute_force_classes(2, "-", 32, 8)
    assert scans == [12]
    assert slow.class_multiset() == enumerate_classes(2, "-", 32).class_multiset()


def test_brute_force_refuses_past_its_reach_before_any_scan(monkeypatch):
    # at box 100 the oracle would lack a class of index 401 in L2- and in
    # L6- (the class of (101, 3, 3, 0)); the library refuses both before
    # any scan, and its earlier checks keep their own messages
    def no_scan(box, p_limit, family):
        raise AssertionError("box scan started")

    monkeypatch.setattr(enumeration, "_box_survivors", no_scan)
    for lattice in (2, 6):
        with pytest.raises(ValueError, match=r"index 401 exceeds 4 \* box = 400"):
            brute_force_classes(lattice, "-", 401, 100)
    for args, match in (
        ((2, "x", 401, 100), "sign must be"),
        ((11, "-", 401, 100), "lattice index must be 1..10"),
        ((2, "-", 401, 304), "int64 safety bound 455"),
        ((1, "-", MAX_LIMIT + 1, 100), f"int64 safety bound {MAX_LIMIT}"),
    ):
        with pytest.raises(ValueError, match=match):
            brute_force_classes(*args)


def test_brute_force_tiny():
    table = brute_force_classes(1, "+", 1, box=2)
    assert len(table) == 1 and table.stab.tolist() == [3]


@pytest.mark.parametrize("family, p_limit", [(1, 60), (2, 27 * 12)])
def test_group_box_orbits_reps_are_lexmin_in_box(reference_orbit_bfs, family, p_limit):
    # grouped at box from the survivors of the scan at the stability box
    box, cap = 12, 48
    survivors = enumeration._box_survivors(enumeration.stability_box(box), p_limit, family)
    orbits = enumeration._group_box_orbits(survivors, box, p_limit, cap, family)
    assert orbits.limit == p_limit
    assert orbits.reps.dtype == np.int64 and orbits.reps.shape == (len(orbits), 4)
    reps = list(map(tuple, orbits.reps.tolist()))
    # reference: the least in-box form of each closure, found by testing
    # every closure member against the box
    todo = set(map(tuple, enumeration._box_survivors(box, p_limit, family).tolist()))
    want = []
    while todo:
        orbit = reference_orbit_bfs(todo.pop(), cap)
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


def test_group_box_orbits_one_bfs_per_grouping(monkeypatch, reference_orbit_bfs):
    box, cap = 20, 80
    calls = []

    def spy(forms, cap):
        calls.append((np.array(forms), cap))
        return orbit_bfs(forms, cap)

    monkeypatch.setattr(enumeration, "orbit_bfs", spy)
    for family, p_limit in ((1, 100), (2, 27 * 100)):
        calls.clear()
        scan = enumeration._box_survivors(box, p_limit, family)
        orbits = enumeration._group_box_orbits(scan, box, p_limit, cap, family)
        reps = list(map(tuple, orbits.reps.tolist()))
        # reference: the in-box members of each closure, one act-based BFS
        # per seed until every survivor is held
        survivors = scan.tolist()
        todo = set(map(tuple, survivors))
        closures = []
        while todo:
            closure = reference_orbit_bfs(todo.pop(), cap)
            members = frozenset(x for x in closure if max(map(abs, x)) <= box)
            todo -= members
            closures.append(members)
        assert reps == sorted(min(members) for members in closures), family
        # one call, seeded in lexicographic order with one form of every
        # +-pair of survivors, the lesser
        pairs = sorted({min(tuple(x), tuple(-t for t in x)) for x in survivors})
        assert len(calls) == 1 and calls[0][1] == cap, family
        assert list(map(tuple, calls[0][0].tolist())) == pairs, family
        # a second grouping of the same scan makes a second call
        enumeration._group_box_orbits(scan, box // 2, p_limit, cap, family)
        assert len(calls) == 2, family


def test_group_box_orbits_checks_the_scan():
    # a closure's in-box member missing from the seeds is an
    # AssertionError: a non-representative seed, then a representative
    box, p_limit, cap, family = 12, 60, 48, 1
    survivors = enumeration._box_survivors(box, p_limit, family)
    orbits = enumeration._group_box_orbits(survivors, box, p_limit, cap, family)
    reps = set(map(tuple, orbits.reps.tolist()))
    other = next(f for f in map(tuple, survivors.tolist()) if f not in reps)
    for f in (other, min(reps)):
        drop = (survivors == f).all(axis=1)
        assert drop.sum() == 1
        with pytest.raises(AssertionError, match="in-box member is not a box survivor"):
            enumeration._group_box_orbits(survivors[~drop], box, p_limit, cap, family)


def test_oracle_scans_once_per_sublattice_and_keeps_nothing(monkeypatch):
    # verify_oracle's 20 pairs scan each sublattice once and group each scan
    # twice (box, then the stability box): 2 scans, 4 searches; every
    # brute_force_classes call of its own scans once, and no grouping
    # outlives the call that made it
    scans, caps, groupings = [], [], []
    box_survivors = enumeration._box_survivors
    group_box_orbits = enumeration._group_box_orbits

    def scanning(box, p_limit, family):
        scans.append((box, p_limit, family))
        return box_survivors(box, p_limit, family)

    def searching(forms, cap):
        caps.append(cap)
        return orbit_bfs(forms, cap)

    def grouping(*args):
        orbits = group_box_orbits(*args)
        groupings.append(weakref.ref(orbits))
        return orbits

    monkeypatch.setattr(enumeration, "_box_survivors", scanning)
    monkeypatch.setattr(enumeration, "orbit_bfs", searching)
    monkeypatch.setattr(enumeration, "_group_box_orbits", grouping)
    assert verify_oracle(60, 30).passed
    assert scans == [(45, 60, 1), (45, 27 * 60, 2)]
    assert caps == [120, 180, 120, 180]
    for box in (8, 9, 10):
        brute_force_classes(1, "+", 20, box)
    brute_force_classes(1, "-", 20, 10)  # the same grouping, made again
    assert scans[2:] == [(12, 20, 1), (14, 20, 1), (15, 20, 1), (15, 20, 1)]
    gc.collect()
    assert len(groupings) == 12 and all(ref() is None for ref in groupings)


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


def test_master_matches_unique_reference(reference_canonical_pos):
    # the P > 0 block is a row-wise np.unique of the reference canonical
    # images of every scanned row, whichever row the stratum keeps
    limit = 20000
    tasks = enumeration._stratum_tasks(limit)
    scan = enumeration._ranges_to_rows(
        [enumeration._pos_scan(a, lim) for kind, a, lim, _ in tasks if kind == "pos"]
    )
    pos = np.unique(reference_canonical_pos(scan), axis=0)
    assert len(pos) < len(scan)  # some orbits are scanned more than once
    blocks = {
        kind: enumeration._ranges_to_rows([_unit_rows(t) for t in tasks if t[0] == kind])
        for kind in ("negird", "negrd")
    }
    for kind in ("negird", "negrd"):
        assert len(np.unique(blocks[kind], axis=0)) == len(blocks[kind])
    want = np.concatenate([pos, blocks["negird"], blocks["negrd"]])
    m = master_classes(limit)
    assert m.reps.dtype == want.dtype and m.reps.shape == want.shape
    assert (m.reps == want).all()
    assert (m.disc == discriminant(want.T)).all()


def test_master_positive_block_strictly_increasing():
    m = master_classes(20000)
    pos = [tuple(r) for r in m.reps[m.disc > 0].tolist()]
    assert len(pos) == (m.disc > 0).sum() > 0
    assert all(x < y for x, y in zip(pos, pos[1:]))
    # the positive block comes first
    assert (m.disc[: len(pos)] > 0).all()


# Each task kind's sign of P: the partial ids read the one-sign stream of it.
_PARTIAL = {"pos": "+", "negird": "-", "negrd": "-"}
_KIND_SELECTIONS = pytest.mark.parametrize(
    "kind, partial",
    [(kind, False) for kind in _PARTIAL] + [(kind, True) for kind in _PARTIAL],
    ids=list(_PARTIAL) + [f"{kind}-partial" for kind in _PARTIAL],
)


def _stream_consumers(kind: str, partial: bool) -> list:
    """The calls that run the kind's tasks through the orbit stream
    (enumeration._task_orbits): the full master, or with partial
    enumerate_classes, which reads the stream of the kind's
    sign; then density_report of that sign where it reads the kind (pos and
    negird; the negrd rows are reducible)."""
    sign = _PARTIAL[kind]

    def master():
        return master_classes(2000)

    def enumerate_():
        return enumerate_classes(1, sign, 2000)

    def density():
        return density_report(1, sign, 2000, checkpoints=3)

    first = enumerate_ if partial else master
    return [first] if kind == "negrd" else [first, density]


@_KIND_SELECTIONS
def test_master_rejects_duplicate_rows(monkeypatch, kind, partial):
    def doubled(task, rows):
        return np.concatenate([rows, rows[:1]]) if task[0] == kind else rows

    monkeypatch.setattr(enumeration, "_stratum_chunks", _chunks_changed(doubled))
    for consume in _stream_consumers(kind, partial):
        with pytest.raises(AssertionError, match="duplicate representatives"):
            consume()


@_KIND_SELECTIONS
def test_master_rejects_duplicates_across_tasks(monkeypatch, kind, partial):
    # a unit planned twice: each unit's rows increase, so only a check
    # across units sees its rows twice, in one chunk or across chunks
    stratum_tasks = enumeration._stratum_tasks

    def repeated(limit, step=1):
        tasks = stratum_tasks(limit, step)
        i = next(i for i, t in enumerate(tasks) if t[0] == kind and len(_unit_rows(t)))
        return tasks[: i + 1] + tasks[i:]

    monkeypatch.setattr(enumeration, "_stratum_tasks", repeated)
    for consume in _stream_consumers(kind, partial):
        with pytest.raises(AssertionError, match="duplicate representatives"):
            consume()


@_KIND_SELECTIONS
def test_master_rejects_rows_out_of_order(monkeypatch, kind, partial):
    swapped = []

    def swap_first_pair(task, rows):
        if task[0] == kind and not swapped and len(rows) >= 2:
            rows = rows.copy()
            rows[[0, 1]] = rows[[1, 0]]
            swapped.append((rows[0] != rows[1]).any())
        return rows

    monkeypatch.setattr(enumeration, "_stratum_chunks", _chunks_changed(swap_first_pair))
    for consume in _stream_consumers(kind, partial):
        swapped.clear()
        with pytest.raises(AssertionError, match="out of order"):
            consume()
        assert swapped == [True]  # two distinct rows, nothing else changed


@pytest.mark.parametrize("limit", [10 ** 5, 10 ** 6])
@pytest.mark.parametrize("step", [1, 3])
def test_every_task_kind_emits_rows(limit, step):
    # in L1 (step 1) and L2 (step 3) every task kind emits rows, and so does
    # the pair stream of each sign (L1 or L2 up to the largest index whose
    # |P| is within limit)
    emitted = {t: len(_unit_rows(t)) for t in enumeration._stratum_tasks(limit, step)}
    assert {kind for (kind, *_), rows in emitted.items() if rows} == {"pos", "negird", "negrd"}
    lattice = {1: 1, 3: 2}[step]
    for sign in ("+", "-"):
        stream = enumeration._pair_stream(lattice, sign, limit // index_scale(lattice))
        assert sum(len(chunk) for chunk in stream) > 0, sign


@pytest.mark.parametrize("max_index", [10 ** 5, 10 ** 6])
def test_pair_stream_plans_the_reference_units(monkeypatch, reference_plan, max_index):
    # all 20 pairs, with and without irreducible: _pair_stream hands
    # _task_orbits exactly the units of the reference plan (the sign's
    # units; with irreducible, those that may hold an irreducible orbit) of
    # the pair's sublattice, at the pair's limit, so the chunks are those
    # of that plan too
    monkeypatch.setattr(enumeration, "_task_orbits", lambda *args: args)
    for lattice in range(1, 11):
        sub = sublattice_of(lattice)
        limit = max_index * index_scale(lattice)
        units = enumeration._stratum_tasks(limit, {1: 1, 2: 3}[sub])
        for sign in ("+", "-"):
            for irreducible in (False, True):
                tasks, *rest = enumeration._pair_stream(lattice, sign, max_index, irreducible)
                assert rest == [limit, sign, sub], (lattice, sign, irreducible)
                want = reference_plan(units, sign, irreducible)
                assert tasks == want and want, (lattice, sign, irreducible)
            # the irreducible plan leaves out the reducible units only
            assert len(reference_plan(units, sign, True)) < len(reference_plan(units, sign))


def _coeffs(lattice, sign, max_index):
    """cli.cmd_coeffs on its own, as main calls it once the options parse."""
    args = argparse.Namespace(lattice=lattice, sign=sign, max=max_index)
    return cli.cmd_coeffs(args, io.StringIO())


def test_pair_stream_checks_run_before_any_unit(monkeypatch):
    # every check of _pair_stream, for each of its three consumers: a float
    # max_index or lattice is a TypeError, and max_index < 1, a bad sign or
    # lattice and a limit past MAX_LIMIT are ValueErrors, each raised
    # before _stratum_chunks starts; with the checks passed it does start
    def no_work(tasks):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    bad = [
        ((1, "+", 10.0), TypeError, None),
        ((1.0, "+", 10), TypeError, None),
        ((1, "+", 0), ValueError, "max_index must be >= 1"),
        ((1, "-", -3), ValueError, "max_index must be >= 1"),
        ((1, "x", 10), ValueError, "sign must be"),
        ((1, None, 10), ValueError, "sign must be"),
        ((0, "-", 10), ValueError, "lattice index must be 1..10"),
        ((11, "+", 10), ValueError, "lattice index must be 1..10"),
        ((1, "-", MAX_LIMIT + 1), ValueError, "exceeds the int64 safety bound"),
        ((2, "+", MAX_LIMIT // 27 + 1), ValueError, "exceeds the int64 safety bound"),
    ]
    for consume in (enumerate_classes, density_report, _coeffs):
        for args, error, match in bad:
            with pytest.raises(error, match=match):
                consume(*args)
        for lattice, sign in ((1, "-"), (2, "+")):
            with pytest.raises(AssertionError, match="stratum work started"):
                consume(lattice, sign, 10 ** 4)


@pytest.mark.parametrize("kind", list(_PARTIAL))
def test_rows_past_the_limit_raise_before_any_consumer(monkeypatch, kind):
    # the first chunk of the kind with rows gets three more rows, each still
    # increasing in the block key, so the order check passes them, and each
    # with |P| past the limit: _task_orbits raises before it yields the
    # chunk, so master_classes returns nothing, and the consumers of
    # enumerate_classes (_class_table) and density_report (count_orbits)
    # never receive a row past the limit
    padded = []

    def past_limit(task, rows):
        if task[0] == kind and not padded and len(rows):
            last_key = range(4)[enumeration._BLOCK_KEYS[kind]][-1]
            more = np.repeat(rows[-1:], 3, axis=0)
            more[:, last_key] += task[2] * np.arange(1, 4)
            assert (np.abs(discriminant(more.T)) > task[2]).all()
            rows = np.concatenate([rows, more])
            padded.append(task)
        return rows

    received = []  # the largest |P| of each chunk a consumer takes

    def receiving(consumer):
        def wrapped(chunks, *args, **kwargs):
            def taken():
                for chunk in chunks:
                    received.append(int(np.abs(chunk.disc).max(initial=0)))
                    yield chunk

            return consumer(taken(), *args, **kwargs)

        return wrapped

    monkeypatch.setattr(enumeration, "_stratum_chunks", _chunks_changed(past_limit))
    monkeypatch.setattr(enumeration, "_class_table", receiving(enumeration._class_table))
    monkeypatch.setattr(analytic, "count_orbits", receiving(analytic.count_orbits))
    sign = _PARTIAL[kind]
    calls = [lambda: master_classes(2000), lambda: enumerate_classes(1, sign, 2000)]
    if kind != "negrd":  # density streams the tasks whose rows may be irreducible
        calls.append(lambda: density_report(1, sign, 2000, checkpoints=3))
    for call in calls:
        padded.clear()
        with pytest.raises(AssertionError, match="enumeration produced out-of-range discriminants"):
            call()
        assert len(padded) == 1
    assert max(received, default=0) <= 2000


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
    for kind, a, lim, _ in enumeration._stratum_tasks(limit):
        if kind != "pos":
            continue
        got = _unit_rows((kind, a, lim, 1))
        want = reference_pos_stratum(a, lim)[::-1]
        assert got.dtype == want.dtype and np.array_equal(got, want), a
        emitted += _count_a_equal_c(got)
        dropped += _count_a_equal_c(enumeration._pos_scan(a, lim)) - _count_a_equal_c(got)
    assert emitted > 0 and dropped > 0


def test_master_matches_sorted_reference(reference_master):
    # byte-equal to the master whose P > 0 block comes from the keep test on
    # every scan row, ordered by a lexsort
    limit = 300_000
    m = master_classes(limit)
    want = reference_master(limit)
    for name in ("reps", "disc", "stab", "irred", "member"):
        got, ref = getattr(m, name), getattr(want, name)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape), name
        assert got.tobytes() == ref.tobytes(), name


def test_master_stab_column_matches_scalar_rule_at_one_million(shared_master):
    # a stab-3 form's reduced Hessian is fixed by an order-3 matrix, so
    # |B| = A = C: every P > 0 row with A = C against the scalar
    # stabilizer_order, and stab 1 on every other row.  The stab-3 rows
    # reach x1 = 0 with P > 1e5, where no smaller master has them
    m = shared_master(10 ** 6)
    A, _, C = hessian(m.reps.T)
    rows = np.flatnonzero((m.disc > 0) & (A == C))
    want = [stabilizer_order(f) for f in m.reps[rows]]
    assert m.stab[rows].tolist() == want
    others = np.ones(len(m), dtype=bool)
    others[rows] = False
    assert (m.stab[others] == 1).all()
    stab3 = rows[np.array(want) == 3]
    assert len(rows) == 1128 and len(stab3) == 609
    assert ((m.reps[stab3, 0] == 0) & (m.disc[stab3] > 10 ** 5)).sum() == 14


def test_master_positive_block_is_canonical():
    # each P > 0 row is its own canonical image, so distinct rows are
    # distinct orbits
    m = master_classes(20000)
    pos = m.reps[m.disc > 0]
    assert np.array_equal(_canonical_pos(pos), pos)


def test_master_rejects_limit_past_int64_bound(monkeypatch):
    def no_work(tasks):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    # the bound is checked before the verify suites' memo, even one that
    # would answer
    no = np.empty(0, dtype=np.int64)
    past = enumeration.MasterClasses(
        MAX_LIMIT + 2, no.reshape(0, 4), no, no.astype(np.int8), no != 0, no.astype(np.uint16)
    )
    monkeypatch.setattr(series, "_VERIFY_MASTERS", {1: past})
    for build in (master_classes, lambda limit: _verify_master(limit, 1)):
        with pytest.raises(ValueError, match="int64 safety bound"):
            build(MAX_LIMIT + 1)
    with pytest.raises(ValueError, match="int64 safety bound"):
        enumerate_classes(2, "+", MAX_LIMIT // 27 + 1)


def test_enumerate_rejects_bad_sign_before_master_build(monkeypatch):
    def no_work(tasks):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    with pytest.raises(ValueError, match="sign must be"):
        enumerate_classes(1, "x", 10 ** 6)


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
    chunks = []
    for a in side.tolist():  # one leading coefficient at a time keeps it small
        rows = np.stack(
            [g.ravel() for g in np.meshgrid([a], bc, bc, side, indexing="ij")], axis=1
        )
        p = np.abs(discriminant(rows.T))
        chunks.append(rows[(p >= 1) & (p <= p_limit)])
    return np.concatenate(chunks)


def _lex_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


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
    # the seeds: the grid's rows whose first nonzero coefficient is negative
    for box, p_limit, family in (
        (3, 1, 1), (6, 4, 1), (4, 8, 1), (9, 27, 1), (12, 300, 1), (20, 300, 1),
        (4, 1, 2), (6, 27, 2), (9, 4, 2), (12, 300, 2), (21, 324, 2),
    ):
        got = enumeration._box_survivors(box, p_limit, family)
        assert len(np.unique(got, axis=0)) == len(got), (box, p_limit, family)
        grid = _grid_survivors(box, p_limit, family)
        first = np.where(grid[:, 0] != 0, grid[:, 0], grid[:, 1])
        assert np.array_equal(_lex_rows(got), grid[first < 0]), (box, p_limit, family)
        rows = set(map(tuple, got.tolist()))
        for f, limit, fam in TANGENT_CASES:
            if (limit, fam) == (p_limit, family) and max(map(abs, f)) <= box:
                pair = (f, tuple(-t for t in f))
                assert min(pair) in rows and max(pair) not in rows


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
    # the (b, c) pairs handed to _d_windows are exactly those of the scan
    # domain b >= 0, |c| <= b, in lexicographic order: at a = 0 those with
    # b >= 1, at a >= 1 those with 4 max(-H, 0)^3 <= 27 a^2 p_limit, i.e.
    # H >= -h0
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
        domain = [(bv, cv) for bv in side for cv in side if abs(cv) <= bv]
        assert [a for a, _, _ in handed] == list(range(box + 1))
        _, b, c = handed[0]
        assert list(zip(b, c)) == [(bv, cv) for bv, cv in domain if bv >= 1]
        for a, b, c in handed[1:]:
            want = [
                (bv, cv) for bv, cv in domain
                if 4 * max(3 * a * cv - bv * bv, 0) ** 3 <= 27 * a * a * p_limit
            ]
            assert list(zip(b, c)) == want, (box, p_limit, family, a)
            h0 = enumeration._hessian_floor(a, p_limit)
            binding += sum(3 * a * cv == bv * bv + h0 for bv, cv in want)
    assert binding > 0  # pairs on the bound itself were kept


def test_box_survivors_sorted_distinct_and_closed_under_the_signed_permutations():
    # the identity, f(x, -y), f(y, x), both and -f, each followed by
    # _lesser_of_pair, map the seeds onto themselves
    mirror = np.array([1, -1, 1, -1])
    maps = (
        lambda r: r.copy(),
        lambda r: r * mirror,
        lambda r: r[:, ::-1].copy(),
        lambda r: (r * mirror)[:, ::-1].copy(),
        lambda r: -r,
    )
    for box, p_limit, family in ((12, 300, 1), (20, 60, 1), (15, 27 * 12, 2), (21, 324, 2)):
        got = enumeration._box_survivors(box, p_limit, family)
        assert got.dtype == np.int64 and len(got) > 100, (box, p_limit, family)
        keys = list(map(tuple, got.tolist()))
        assert all(x < y for x, y in zip(keys, keys[1:])), (box, p_limit, family)
        for image in maps:
            rows = image(got)
            _lesser_of_pair(rows)
            assert np.array_equal(_lex_rows(rows), got), (box, p_limit, family)


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
    # at the switch to the corrected root (n < 2^52 takes the float root
    # as is): squares near 2^52 and near 2^54, one block at a time, since
    # the largest n of a call picks the path
    for centre in (2 ** 26, 2 ** 27 - 1):
        ks = range(centre - 3, centre + 4)
        ns = [k * k + off for k in ks for off in (-1, 0, 1)]
        for block in (ns, [n for n in ns if n < 2 ** 52]):
            got = _isqrt64(np.array(block, dtype=np.int64))
            assert got.tolist() == [isqrt(n) for n in block]
    ns = [2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1]
    for block in (ns, ns[:1]):
        assert _isqrt64(np.array(block, dtype=np.int64)).tolist() == [isqrt(n) for n in block]


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
    # every call scans at the stability box (3 box + 1) // 2, so the largest
    # box is 303, and MAX_BOX itself is refused
    stable = 2 * box // 3
    assert stable == 303 and enumeration.stability_box(stable) == box
    for past in (stable + 1, box, box + 1):
        with pytest.raises(ValueError, match="int64 safety bound"):
            brute_force_classes(1, "+", 1, box=past)
        with pytest.raises(ValueError, match="int64 safety bound"):
            enumeration.stability_box(past)
    with pytest.raises(ValueError, match="int64 safety bound"):
        brute_force_classes(1, "+", MAX_LIMIT + 1, box=2)
    # at the bound the scan starts
    with pytest.raises(AssertionError, match="box scan started"):
        brute_force_classes(1, "+", 1, box=stable)


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

    pos = [a for kind, a, *_ in tasks if kind == "pos"]
    neg = [a for kind, a, *_ in tasks if kind == "negird"]
    assert min(pos) == 0 and neg[0] == 1
    for a in pos:
        want = _box_reference(a, 16, 40, limit // 4 + 8 if a == 0 else 40, weakly_reduced)
        assert np.array_equal(enumeration._pos_scan(a, limit), want), a
    for a in neg:
        want = _box_reference(a, 16, 40, 60, root_reduced_irreducible)
        assert np.array_equal(_unit_rows(("negird", a, limit, 1)), want), a
    # past the tasks' a there is nothing
    assert len(_box_reference(max(pos) + 1, 16, 40, 40, weakly_reduced)) == 0
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
    for kind, a, *_ in enumeration._stratum_tasks(limit):
        if kind == "pos":
            d_max = limit // 4 + 8 if a == 0 else 40
            want = -_box_reference(a, 16, 40, d_max, negation_canonical)[::-1]
            assert np.array_equal(_unit_rows(("pos", a, limit, 1)), want), a
            total += len(want)
    assert total == (master_classes(limit).disc > 0).sum() > 0


def _pos_task_rows(limit: int) -> dict:
    """a -> the P > 0 rows of the stratum task with leading coefficient -a,
    for every a >= 1."""
    return {
        a: _unit_rows(("pos", a, limit, 1))
        for k, a, *_ in enumeration._stratum_tasks(limit)
        if k == "pos" and a
    }


def test_pos_irreducible_mask_matches_float_roots(reference_pos_root_mask):
    # every P > 0 row with a >= 1 at Y = 3e5: the exact bisection and the
    # old trigonometric float roots with the test next to them agree, on
    # more than 1000 reducible rows
    reducible = 0
    for a, rows in _pos_task_rows(300000).items():
        got = enumeration._pos_irreducible_mask(rows)
        assert np.array_equal(got, ~reference_pos_root_mask(rows, a)), a
        reducible += int((~got).sum())
    assert reducible > 1000


def _neg_ird_window_rows(a: int, limit: int) -> np.ndarray:
    """The rows of the P < 0 irreducible stratum's windows at leading
    coefficient a, before the root test."""
    b, c = enumeration._bc_pairs(*enumeration._neg_ird_bc_windows(a, limit))
    return enumeration._window_rows(a, b, c, *enumeration._neg_ird_windows(a, b, c, limit)[:2])


def test_neg_ird_bisection_matches_float_root(reference_neg_root_mask):
    # every window row of every negird task at Y = 3e5: the exact bisection
    # and the old Cardano float root with _root_near_mask agree, and more
    # than 1000 rows are dropped (the d = 0 rows among them); the rows of
    # all a in one call, as a merged pass tests them, agree too
    limit = 300000
    dropped = zeros = 0
    every, want = [], []
    for kind, a, *_ in enumeration._stratum_tasks(limit):
        if kind != "negird":
            continue
        rows = _neg_ird_window_rows(a, limit)
        got = enumeration._neg_ird_reducible(rows)
        assert np.array_equal(got, reference_neg_root_mask(rows, a)), a
        assert got[rows[:, 3] == 0].all()  # the root 0
        dropped += int(got.sum())
        zeros += int((rows[:, 3] == 0).sum())
        every.append(rows)
        want.append(got)
    assert dropped > 1000 and 0 < zeros < dropped
    assert np.array_equal(enumeration._neg_ird_reducible(np.concatenate(every)), np.concatenate(want))


def test_root_masks_match_scalar_is_irreducible():
    # every P > 0 row with a >= 1 and every negird window row at Y = 1e5,
    # against scalar is_irreducible (the Cauchy bound on Python ints)
    limit = 100000
    for a, rows in _pos_task_rows(limit).items():
        want = [is_irreducible(f) for f in rows]
        assert enumeration._pos_irreducible_mask(rows).tolist() == want, a
    for kind, a, *_ in enumeration._stratum_tasks(limit):
        if kind == "negird":
            rows = _neg_ird_window_rows(a, limit)
            want = [not is_irreducible(f) for f in rows]
            assert enumeration._neg_ird_reducible(rows).tolist() == want, a


def test_neg_ird_windows_are_the_s2_cut():
    # the windows hold exactly the rows that the s2 > 1 cut kept, plus the
    # d = 0 rows with c > a (and s2 <= 1 is never cut twice)
    limit = 20000
    for kind, a, *_ in enumeration._stratum_tasks(limit):
        if kind != "negird":
            continue
        b, c = enumeration._bc_pairs(*enumeration._neg_ird_bc_windows(a, limit))
        windows = enumeration._clip(
            _d_windows(a, b, c, -limit, -1),
            (-(a - b) * (a - b + c)) // a + 1,
            _ceil_div((a + b) * (a + b + c), a) - 1,
        )
        rows = enumeration._window_rows(a, b, c, *enumeration._window_set(windows)[:2])
        keep = _s2_above_one(rows.T) | ((rows[:, 3] == 0) & (rows[:, 2] > a))
        assert np.array_equal(_neg_ird_window_rows(a, limit), rows[keep]), a


def _edge_forms() -> list:
    """Root-reduced reducible P < 0 forms (q u - p v)(al u^2 + be u v + ga v^2)
    with p != 0 and |be| < al < ga (the complex root strictly inside the
    domain), for q = 1, 2, 3 and each al with some form of 0.9 MAX_LIMIT <
    |P| <= MAX_LIMIT: the one with the largest ga.  |P| = (4 al ga - be^2)
    Q^2 with Q = al p^2 + be p q + ga q^2 rises with ga."""
    forms = []
    for q in (1, 2, 3):
        for al in range(1, 200 // q):
            for be, p in ((al - 1, -1), (1 - al, 1), (al - 1, 1 - 2 * q), (0, 1)):
                if np.gcd(p, q) != 1:
                    continue
                size = lambda ga: (4 * al * ga - be * be) * (al * p * p + be * p * q + ga * q * q) ** 2
                lo, hi = al, 2 * MAX_LIMIT  # size(lo) may fit, size(hi) does not
                if size(al + 1) > MAX_LIMIT:
                    continue
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (mid, hi) if size(mid) <= MAX_LIMIT else (lo, mid)
                if size(lo) > 0.9 * MAX_LIMIT:
                    forms.append((q * al, q * be - p * al, q * lo - p * be, -p * lo))
                    break
    return forms


def test_neg_ird_root_test_at_int64_edge(monkeypatch):
    # reducible window rows with |P| near MAX_LIMIT and a up to the
    # stratum's largest: the root test flags each of them, as
    # forms.rational_roots does, and the int64 run equals the Python int
    # one.  The rows of every a in one call, as a merged pass tests them,
    # give the same answers, and g is read only inside each row's own
    # piece -b - a < y < -b + a (the bound beside MAX_LIMIT)
    forms = _edge_forms()
    a_max = max(a for kind, a, *_ in enumeration._stratum_tasks(MAX_LIMIT) if kind == "negird")
    assert len(forms) > 300 and max(f[0] for f in forms) > a_max - 60
    every, want = [], []
    for f in forms:
        a, b, c, d = f
        assert 0.9 * MAX_LIMIT < -discriminant(f) <= MAX_LIMIT
        assert _in_open_domain(f) and rational_roots(f)
        # the stratum's windows at MAX_LIMIT hold the row
        bs, c_lo, c_hi = enumeration._neg_ird_bc_windows(a, MAX_LIMIT)
        i = int(np.searchsorted(bs, b))
        assert bs[i] == b and c_lo[i] <= c <= c_hi[i]
        pair = np.array([b]), np.array([c])
        lo, hi, _ = enumeration._neg_ird_windows(a, *pair, MAX_LIMIT)
        assert any(lo[0, w] <= d <= hi[0, w] for w in range(lo.shape[1]))
        # the row and its neighbours in d, in int64 and in Python ints
        near = [(a, b, c, d + k) for k in range(-2, 3)]
        near = [g for g in near if discriminant(g) < 0 and _in_open_domain(g)]
        rows = np.array(near, dtype=np.int64)
        got = enumeration._neg_ird_reducible(rows)
        exact = enumeration._neg_ird_reducible(rows.astype(object))
        assert got.tolist() == [bool(x) for x in exact]
        assert got.tolist() == [bool(rational_roots(g)) for g in near]
        assert got[near.index(f)]
        every += near
        want += got.tolist()
    rows = np.array(every, dtype=np.int64)
    a, b = rows[:, 0], rows[:, 1]
    assert len(set(a.tolist())) > 50
    reads = []
    monic_cubic = enumeration._monic_cubic

    def recording(*coeffs):
        g = monic_cubic(*coeffs)

        def read(y):
            reads.append(np.broadcast_to(y, b.shape).copy())
            return g(y)

        return read

    monkeypatch.setattr(enumeration, "_monic_cubic", recording)
    assert enumeration._neg_ird_reducible(rows).tolist() == want
    assert len(reads) > 8 and all(((y > -b - a) & (y < -b + a)).all() for y in reads)
    assert [bool(x) for x in enumeration._neg_ird_reducible(rows.astype(object))] == want


def _pos_edge_forms() -> list:
    """Hessian-reduced (|B| <= A <= C) P > 0 forms (q u - p v)(al u^2 +
    be u v + ga v^2) with 0.9 MAX_LIMIT < P <= MAX_LIMIT, a = q al in the
    twelve largest leading coefficients of the stratum's tasks, q = 1, 2, 3
    and p = -1, 1: each (b, c) of the stratum's windows at a gives the
    be = (b + p al) / q, ga = (c + p be) / q and d = -p ga of its form."""
    forms = []
    a_max = max(a for kind, a, *_ in enumeration._stratum_tasks(MAX_LIMIT) if kind == "pos")
    for a in range(a_max - 11, a_max + 1):
        b, c = enumeration._bc_pairs(*enumeration._pos_bc_windows(a, MAX_LIMIT))
        A = b * b - 3 * a * c
        for q, p in ((1, -1), (1, 1), (2, -1), (2, 1), (3, -1), (3, 1)):
            if a % q:
                continue
            be, b_rem = np.divmod(b + p * (a // q), q)
            ga, c_rem = np.divmod(c + p * be, q)
            d = -p * ga
            B, C = b * c - 9 * a * d, c * c - 3 * b * d
            P = (4 * A * C - B * B) // 3
            keep = (b_rem == 0) & (c_rem == 0) & (abs(B) <= A) & (A <= C)
            keep &= (P > 0.9 * MAX_LIMIT) & (P <= MAX_LIMIT)
            forms += [(a, *f) for f in zip(b[keep].tolist(), c[keep].tolist(), d[keep].tolist())]
    return forms


def test_pos_root_test_at_int64_edge():
    # reducible Hessian-reduced rows with P near MAX_LIMIT and a up to the
    # stratum's largest, with their neighbours in d, as scanned (x1 = a)
    # and as the master holds them (x1 = -a): the P > 0 root test equals
    # forms.rational_roots, and the int64 run equals the Python int one
    forms = _pos_edge_forms()
    a_max = max(a for kind, a, *_ in enumeration._stratum_tasks(MAX_LIMIT) if kind == "pos")
    assert len(forms) > 300 and max(f[0] for f in forms) >= a_max - 2
    assert {1, 2, 3} <= {q for f in forms for _, q in rational_roots(f)}
    near = set()
    for a, b, c, d in forms:
        assert 0.9 * MAX_LIMIT < discriminant((a, b, c, d)) <= MAX_LIMIT
        for g in ((a, b, c, d + k) for k in range(-2, 3)):
            A, B, C = hessian(g)
            if 0 < discriminant(g) <= MAX_LIMIT and abs(B) <= A <= C:
                near |= {g, tuple(-x for x in g)}
    near = sorted(near)
    rows = np.array(near, dtype=np.int64)
    got = enumeration._pos_irreducible_mask(rows)
    exact = enumeration._pos_irreducible_mask(rows.astype(object))
    assert got.tolist() == [bool(x) for x in exact]
    assert got.tolist() == [not rational_roots(g) for g in near]
    assert got.any() and not any(got[near.index(f)] for f in forms)


@pytest.mark.parametrize("limit", [10 ** 5, 10 ** 6, 10 ** 7, MAX_LIMIT])
def test_exact_stratum_bounds_drop_nothing(limit):
    # the last a of each stratum's tasks is exact: 729 a^4 <= 16 Y (P > 0)
    # and 27 a^4 <= 16 Y (P < 0); the two a past each bound emit no rows
    tasks = enumeration._stratum_tasks(limit)
    top = {kind: max(t[1] for t in tasks if t[0] == kind) for kind in ("pos", "negird")}
    assert 729 * top["pos"] ** 4 <= 16 * limit < 729 * (top["pos"] + 1) ** 4
    assert 27 * top["negird"] ** 4 <= 16 * limit < 27 * (top["negird"] + 1) ** 4
    for k in (1, 2):
        assert len(_unit_rows(("pos", top["pos"] + k, limit, 1))) == 0
        assert len(_unit_rows(("negird", top["negird"] + k, limit, 1))) == 0


def test_strata_windows_exact_at_max_limit():
    # n = B2^2 + 4 alpha (|C2| + L) bounds every int64 intermediate of
    # _d_windows; the strata need (isqrt(n) + 1)^2 < 2^63 over their (b, c)
    # windows at L = MAX_LIMIT.  At fixed (a, b), B2 is linear in c, and
    # C2 = b^2 c^2 - 4 a c^3 has its extrema at c = 0 and c = b^2 / (6a), so
    # |B2| and |C2| peak at a window end or next to those points.
    worst = {}
    for kind, a, *_ in enumeration._stratum_tasks(MAX_LIMIT):
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
    assert 2.4e18 < worst["negird"] < 2.5e18 and 1.5e16 < worst["pos"] < 1.6e16


@pytest.mark.parametrize("kind", ["pos", "negird"])
def test_merged_windows_equal_the_unit_windows_at_max_limit(kind):
    # a pass over the pairs of several units, with a as a column, gives each
    # pair the windows that its unit's pass gives it, for the largest and
    # the smallest a at MAX_LIMIT (a sample of each unit's pairs)
    bc_windows = {"pos": enumeration._pos_bc_windows, "negird": enumeration._neg_ird_bc_windows}[kind]
    pair_windows = enumeration._PAIR_PASSES[kind][0]
    tops = sorted(a for k, a, *_ in enumeration._stratum_tasks(MAX_LIMIT) if k == kind and a)
    for units in (tops[-3:], tops[:3]):
        parts = []
        for a in units:
            bs, c_lo, c_hi = bc_windows(a, MAX_LIMIT)
            b = np.repeat(bs[::7], 3)
            c = np.stack([c_lo, (c_lo + c_hi) // 2, c_hi])[:, ::7].T.ravel()
            parts.append((a, b, c, pair_windows(a, b, c, MAX_LIMIT)))
        a_col = np.concatenate([np.full(len(b), a) for a, b, *_ in parts])
        merged = pair_windows(a_col, *(np.concatenate([p[i] for p in parts]) for i in (1, 2)), MAX_LIMIT)
        for got, *want in zip(merged, *(p[3] for p in parts)):
            assert np.array_equal(got, np.concatenate(want)), units


def _pair_keys(kind: str, rows: np.ndarray) -> np.ndarray:
    """The (a, b, c) of each row, the (q, r) of a negrd row (p, q, r, 0)."""
    return rows[:, 1:3] if kind == "negrd" else rows[:, :3]


@pytest.mark.parametrize(
    "limit, sublattice", [(10 ** 5, 1), (10 ** 6, 1), (10 ** 5, 2), (27 * 10 ** 5, 2)]
)
def test_chunked_stream_equals_the_unit_stream(reference_orbits, shared_master, limit, sublattice):
    # the master, streamed in chunks cut by rows, is byte-equal in all five
    # columns to the one-chunk-per-unit stream of the same strata
    got = shared_master(limit, sublattice=sublattice)
    chunks = list(reference_orbits(limit, None, sublattice))
    for name in enumeration._COLUMNS:
        have = getattr(got, name)
        want = np.concatenate([getattr(c, name) for c in chunks])
        assert (have.dtype, have.shape) == (want.dtype, want.shape), name
        assert have.tobytes() == want.tobytes(), name


def test_chunked_counts_equal_the_unit_stream_counts(reference_orbits):
    # series.count_orbits of all 20 pairs at index 1e5, over the chunked
    # stream of the pair's sign and sublattice and over the
    # one-chunk-per-unit stream
    streams = {}
    for lattice in range(1, 11):
        for sign in ("+", "-"):
            sub, limit = sublattice_of(lattice), 10 ** 5 * index_scale(lattice)
            if (sign, sub) not in streams:
                streams[sign, sub] = (
                    list(enumeration._pair_stream(lattice, sign, 10 ** 5)),
                    list(reference_orbits(limit, sign, sub)),
                )
            got, want = (count_orbits(c, lattice, sign, 10 ** 5) for c in streams[sign, sub])
            assert got.sum() > 1000 and np.array_equal(got, want), (lattice, sign)


@pytest.mark.parametrize("limit, budget", [(10 ** 6, None), (10 ** 5, None), (10 ** 5, 300)])
def test_chunks_hold_at_most_the_budget(monkeypatch, reference_orbits, limit, budget):
    # each chunk of the stream holds at most _CHUNK_ROWS rows, or the rows
    # of one pair; joined they are the one-chunk-per-unit stream's rows.
    # Some chunk holds the rows of several units, and some unit is cut
    # into several chunks
    if budget:
        monkeypatch.setattr(enumeration, "_CHUNK_ROWS", budget)
    budget = enumeration._CHUNK_ROWS
    chunks = [c for c in enumeration._stratum_chunks(enumeration._stratum_tasks(limit)) if len(c[1])]
    merged = split = False
    for (task, rows), (after, next_rows) in zip(chunks, chunks[1:]):
        keys = _pair_keys(task[0], rows)
        assert len(rows) <= budget or (keys == keys[0]).all(), (task, len(rows))
        # the unit of a row: its leading coefficient (x1 = -a for pos), or
        # the one negrd unit
        unit = rows[:, 0] if task[0] != "negrd" else np.zeros(len(rows))
        merged |= len(set(unit.tolist())) > 1
        split |= after[0] == task[0] and (task[0] == "negrd" or next_rows[0, 0] == unit[-1])
    want = np.concatenate([c.reps for c in reference_orbits(limit, None)])
    assert np.array_equal(np.concatenate([rows for _, rows in chunks]), want)
    assert merged and split


def test_expand_windows_equals_the_python_reference():
    # nonempty, empty (hi = lo - 1) and inverted (hi < lo - 1) windows
    # mixed, and all-empty: the same (row index, value) pairs in order
    rng = np.random.default_rng(11)
    for size in (0, 1, 7, 200):
        lo = rng.integers(-50, 50, size)
        kinds = [lo + rng.integers(0, 6, size), lo - 1, lo - rng.integers(2, 9, size)]
        mixed = np.choose(rng.integers(0, 3, size), kinds)
        for hi in (mixed, kinds[1], kinds[2]):
            idx, vals = enumeration._expand_windows(lo, hi)
            want = [(i, v) for i in range(size) for v in range(lo[i], hi[i] + 1)]
            assert list(zip(idx.tolist(), vals.tolist())) == want
            assert idx.dtype == vals.dtype == np.int64


def test_lex_order_equals_the_lexsort_order():
    # the packed words at every range: ties (kept in input order), columns
    # spanning all 64 bits, constant and negative columns, several words
    rng = np.random.default_rng(5)
    top = np.iinfo(np.int64)
    cases = [
        [rng.integers(-5, 5, 2000), rng.integers(-3, 3, 2000)],
        [rng.integers(top.min, top.max, 2000, endpoint=True), rng.integers(0, 2, 2000)],
        [np.array([top.min, top.max, 0, top.min, top.max]), np.array([1, 0, 0, 0, -1])],
        [np.full(500, 7), rng.integers(-2 ** 40, 2 ** 40, 500), rng.integers(-2 ** 30, 2 ** 30, 500),
         rng.integers(0, 3, 500), np.zeros(500, dtype=np.int64)],
    ]
    # one word with long runs of equal words, as the box scan's repeated
    # images give: the argsort's ties, put back in input order
    scan = rng.integers(-3, 4, (300, 4))
    scan = np.concatenate([scan, scan[::-1], scan * [1, -1, 1, -1], scan])
    cases += [list(scan.T), [np.repeat(rng.integers(0, 4, 50), 40)], [np.zeros(64, dtype=np.int64)]]
    for cols in cases:
        cols = [np.asarray(c, dtype=np.int64) for c in cols]
        assert np.array_equal(enumeration._lex_order(cols), np.lexsort(cols[::-1]))
    assert len(enumeration._lex_order([np.empty(0, dtype=np.int64)] * 3)) == 0


def test_class_tables_in_lexsort_order():
    # all 20 pairs at index 3e5: the table's rows are the rows the master
    # of the pair's sublattice selects, in the order np.lexsort gives the
    # five keys (n, x1..x4)
    max_index = 300000
    masters = {sub: master_classes(max_index * index_scale(sub), sublattice=sub) for sub in (1, 2)}
    for lattice in range(1, 11):
        for sign in "+-":
            table = enumerate_classes(lattice, sign, max_index)
            master = masters[sublattice_of(lattice)]
            idx, n = master.select(lattice, sign, max_index)
            idx = idx[np.lexsort((*master.reps[idx].T[::-1], n))]
            assert len(table) == len(idx) > 1000
            assert np.array_equal(table.reps, master.reps[idx])
            assert np.array_equal(table.n, np.abs(master.disc[idx]) // index_scale(lattice))
            assert np.array_equal(table.stab, master.stab[idx])
            assert np.array_equal(table.irred, master.irred[idx])
