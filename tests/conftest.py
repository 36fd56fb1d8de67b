from collections import deque
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from operator import index

import numpy as np
import pytest

from cubicforms import U1, W, ClassTable, CoefficientSeries, act, build_all_series, hessian
from cubicforms import enumeration, master_classes, series
from cubicforms.cli import _frac_str
from cubicforms.enumeration import MasterClasses
from cubicforms.forms import (
    U1_INV,
    _ceil_div,
    _first_rise,
    _monic_cubic,
    _monotone_pieces,
    _residue_row,
    action_matrix,
    discriminant,
    value_at,
)
from cubicforms.reduction import SMALL_MATRICES, _canonical_pos, _pos_stab_column, orbit_bfs


@pytest.fixture(scope="session")
def series300():
    return build_all_series(300)


@pytest.fixture(scope="session")
def series51(series300):
    # any max_n <= 300 is cut from the verify suites' memoised masters
    return build_all_series(51)


@pytest.fixture(scope="session")
def shared_master():
    """master_classes(limit, sublattice=...) built once per session for each
    (limit, sublattice) asked of it, for the tests that read a master and
    change nothing in it."""
    return cache(master_classes)


@pytest.fixture
def fresh_verify_memo(monkeypatch):
    """The verify suites' memo (series._VERIFY_MASTERS) empty for the test,
    and the session's memo back after it."""
    memo = {}
    monkeypatch.setattr(series, "_VERIFY_MASTERS", memo)
    return memo


def _class_rows(table: ClassTable):
    """(n, rep, stab, irred) for each row of the table, as Python ints,
    lists of ints and bools."""
    return zip(
        table.n.tolist(), table.reps.tolist(), table.stab.tolist(), table.irred.tolist()
    )


@pytest.fixture(scope="session")
def class_rows():
    return _class_rows


def _orbit_count(s: CoefficientSeries, n: int) -> int:
    """The number of orbits of index n in the series, 1 <= n <= max_n."""
    if not 1 <= n <= s.max_n:
        raise ValueError(f"n = {n} outside computed range 1..{s.max_n}")
    return int(s.orbits[:, :, n].sum())


@pytest.fixture(scope="session")
def orbit_count():
    return _orbit_count


def _series_from_rows(table: ClassTable, max_n: int) -> CoefficientSeries:
    """The series of one ClassTable up to index max_n, counted row by row
    from _class_rows: the reference for the master path.  Rows past
    max_n are left out; AssertionError for a repeated (n, rep), ValueError
    for an empty table or a stabilizer order other than 1 or 3."""
    if not len(table):
        raise ValueError("cannot build a series from an empty table")
    orbits = np.zeros((2, 2, max_n + 1), dtype=np.int64)
    seen = set()
    for n, rep, stab, irred in _class_rows(table):
        if not 1 <= n <= max_n:
            continue
        key = (n, tuple(rep))
        if key in seen:
            raise AssertionError(f"duplicate class row {key} for (L{table.lattice}, {table.sign})")
        seen.add(key)
        orbits[(1, 3).index(stab), int(irred), n] += 1
    return CoefficientSeries(table.lattice, table.sign, max_n, orbits)


@pytest.fixture(scope="session")
def build_series():
    return _series_from_rows


def _lexmin_small_images(rows: np.ndarray) -> np.ndarray:
    """For Hessian-reduced rows (int64 or object), the lex-least weakly
    reduced image among all 20 SMALL_MATRICES images of each row: the P > 0
    canonical rule before the Hessian's boundary type chose the images."""
    best = rows.copy()
    at = np.arange(len(rows))
    for g in SMALL_MATRICES:
        imgs = rows @ np.array(action_matrix(g), dtype=np.int64).T
        A, B, C = hessian(imgs.T)
        diff = imgs != best
        first = diff.argmax(axis=1)  # the first column where they differ
        less = diff.any(axis=1) & (imgs[at, first] < best[at, first])
        ok = less & (A > 0) & (abs(B) <= A) & (A <= C)
        best[ok] = imgs[ok]
    return best


@pytest.fixture(scope="session")
def reference_canonical_pos():
    return _lexmin_small_images


def _act_orbit_bfs(f, cap: int) -> frozenset:
    """The BFS closure of {f} under u(1), u(-1), w within |coeff| <= cap,
    taking every image with a scalar act call and testing all four
    coefficients of each against the cap, where orbit_bfs writes the images
    out, tests only the changed ones and expands one form of each
    <w>-class.
    Memoised by (f, cap): tests that repeat a search share one closure."""
    return _act_closure(tuple(f), cap)


@cache
def _act_closure(start: tuple, cap: int) -> frozenset:
    seen = {start}
    if any(abs(t) > cap for t in start):
        return frozenset(seen)
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for g in (U1, U1_INV, W):
            y = tuple(act(g, x))
            if y not in seen and all(abs(t) <= cap for t in y):
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


@pytest.fixture(scope="session")
def reference_orbit_bfs():
    return _act_orbit_bfs


def _w_class(x: tuple) -> set:
    """The <w>-class {+-x, +-w x} of the form x, w x = (x4, -x3, x2, -x1)
    (act(W, x), checked in tests/test_reduction.py)."""
    a, b, c, d = x
    return {(a, b, c, d), (-a, -b, -c, -d), (d, -c, b, -a), (-d, c, -b, a)}


def _bfs_closure(f, cap: int) -> set:
    """The closure of the one seed f under u(1), u(-1), w within the cap,
    as a set of tuples, from one orbit_bfs call: {f} past the cap, else
    the <w>-classes of f and of the forms of reached, each of which is the
    least of its class."""
    owner, reached = orbit_bfs([f], cap)
    assert owner.tolist() == [0]
    start = tuple(map(index, f))
    if max(map(abs, start)) > cap:
        assert reached.shape == (0, 4)
        return {start}
    got = list(map(tuple, reached.tolist()))
    assert all(x == min(_w_class(x)) for x in got)
    closure = set().union(*map(_w_class, [start, *got]))
    assert len(closure) == 4 * (1 + len(got))  # four forms a class, none the seed's
    return closure


@pytest.fixture(scope="session")
def bfs_closure():
    return _bfs_closure


@pytest.fixture(scope="session")
def w_class():
    return _w_class


def _scan_pos_stratum(a: int, limit: int) -> np.ndarray:
    """The P > 0 stratum by the keep test on every scan row: a row is kept
    iff its canonical image is its negation, and that image is emitted, in
    the scan's order (the reverse of the stratum's)."""
    rows = enumeration._pos_scan(a, limit)
    canon = _canonical_pos(rows)
    return canon[(canon == -rows).all(axis=1)]


@pytest.fixture(scope="session")
def reference_pos_stratum():
    return _scan_pos_stratum


def _reference_tasks(limit: int, step: int = 1) -> list:
    """The stratum units of a master as the one-chunk-per-unit stream cut
    them: one per leading coefficient a (enumeration._stratum_tasks), and
    the reducible stratum in 16 r-ranges."""
    tasks = [t for t in enumeration._stratum_tasks(limit, step) if t[0] != "negrd"]
    rmax = isqrt(limit // 3) if limit >= 3 else 0
    width = max(1, rmax // 16)
    return tasks + [
        ("negrd", (r, min(r + width - 1, rmax)), limit, step) for r in range(1, rmax + 1, width)
    ]


def _reference_unit_rows(task) -> np.ndarray:
    """The rows of one stratum unit, built whole: every (b, c) pair of the
    unit ((r, q) for negrd), their windows with a an int, and all their rows
    in one array, as the one-chunk-per-unit stream built them."""
    kind, arg, limit, step = task
    if kind == "negrd":
        rs = np.arange(arg[0], arg[1] + 1, dtype=np.int64)
        r, q = enumeration._bc_pairs(rs, np.zeros_like(rs), 2 * rs - 1, step)
        idx, p = enumeration._expand_windows(
            _ceil_div(q * q + 1, 4 * r), (q * q * r * r + limit) // (4 * r ** 3)
        )
        return np.stack([p, q[idx], r[idx], np.zeros_like(p)]).T
    bc_windows = enumeration._pos_bc_windows if kind == "pos" else enumeration._neg_ird_bc_windows
    pair_windows, pair_rows = enumeration._PAIR_PASSES[kind]
    b, c = enumeration._bc_pairs(*bc_windows(arg, limit), step)
    return pair_rows(arg, b, c, *pair_windows(arg, b, c, limit))


def _reference_plan(tasks: list, sign, irreducible: bool = False) -> list:
    """The stratum units of the sign of P among tasks (None: all of them),
    in order: '+' the pos units, '-' the negird and negrd ones; with
    irreducible, only the units that may hold an irreducible orbit, the
    negird units and the pos units with a >= 1 (the negrd rows and the pos
    rows with x1 = 0 are reducible)."""
    return [
        t for t in tasks
        if sign in (None, "+" if t[0] == "pos" else "-")
        and not (irreducible and (t[0] == "negrd" or t[0] == "pos" and t[1] == 0))
    ]


@pytest.fixture(scope="session")
def reference_plan():
    return _reference_plan


def _reference_orbits(limit: int, sign, sublattice: int = 1):
    """The one-chunk-per-unit orbit stream: one MasterClasses per unit of
    _reference_tasks of the sign (None: both; _reference_plan), its columns
    made as enumeration._task_orbits makes them."""
    step = {1: 1, 2: 3}[sublattice]
    for task in _reference_plan(_reference_tasks(limit, step), sign):
        rows = _reference_unit_rows(task)
        stab, irred = enumeration._task_columns(task, rows)
        yield MasterClasses(
            limit,
            rows,
            discriminant(rows.T),
            np.broadcast_to(np.asarray(stab, dtype=np.int8), len(rows)),
            np.broadcast_to(irred, len(rows)),
            _residue_row(rows.T).astype(np.uint16),
            sign,
            sublattice,
        )


@pytest.fixture(scope="session")
def reference_orbits():
    return _reference_orbits


def _lex_sorted(rows: np.ndarray, stratum: str) -> np.ndarray:
    """The rows in lexicographic order; AssertionError if two are equal."""
    rows = rows[np.lexsort(rows.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise AssertionError(f"duplicate representatives in {stratum} stratum")
    return rows


def _sorted_master(limit: int) -> MasterClasses:
    """The master enumeration built from _scan_pos_stratum and the negative
    strata of the one-chunk-per-unit stream (_reference_unit_rows), each
    block checked and the P > 0 block ordered by a sort, and the P > 0
    irreducibility from the float roots (_trig_root_reducible) per |x1|
    over the whole block; stab int8 and the residue rows uint16, as
    master_classes stores them."""
    tasks = _reference_tasks(limit)
    pos = enumeration._ranges_to_rows(
        [_scan_pos_stratum(a, lim) for kind, a, lim, _ in tasks if kind == "pos"]
    )
    pos = _lex_sorted(pos, "pos")
    neg = [
        enumeration._ranges_to_rows([_reference_unit_rows(t) for t in tasks if t[0] == kind])
        for kind in ("negird", "negrd")
    ]
    for rows, kind in zip(neg, ("negird", "negrd")):
        _lex_sorted(rows, kind)
    reps = np.concatenate([pos] + neg)
    stab = np.ones(len(reps), dtype=np.int8)
    stab[: len(pos)] = _pos_stab_column(pos)
    irred = np.zeros(len(reps), dtype=bool)
    irred[len(pos): len(pos) + len(neg[0])] = True
    x1 = np.abs(pos[:, 0])
    for a in np.unique(x1[x1 > 0]).tolist():
        sel = np.flatnonzero(x1 == a)
        irred[sel] = ~_trig_root_reducible(pos[sel], a)
    disc = discriminant(reps.T)
    res = _residue_row(reps.T).astype(np.uint16)
    return MasterClasses(limit, reps, disc, stab, irred, res)


@pytest.fixture(scope="session")
def reference_master():
    return _sorted_master


def _divisors(n: int) -> list:
    """The positive divisors of |n|, by trial division up to its square root."""
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


def _divisor_rational_roots(f) -> list:
    """The rational roots of f as primitive pairs (p, q), q >= 0, found by
    trying every p dividing the last nonzero end coefficient and q dividing
    the first: exponential in the digit count, so small forms only."""
    a, b, c, d = f
    roots = []
    if a == 0:
        roots.append((1, 0))
    if d == 0:
        roots.append((0, 1))
    den = a if a != 0 else (b if b != 0 else c)
    num = d if d != 0 else (c if c != 0 else b)
    if den == 0 or num == 0:
        return roots
    for q in _divisors(den):
        for p in _divisors(num):
            if gcd(p, q) != 1:
                continue
            for p_ in (p, -p):
                if value_at(f, p_, q) == 0:
                    roots.append((p_, q))
    return roots


@pytest.fixture(scope="session")
def reference_rational_roots():
    return _divisor_rational_roots


def _cauchy_integer_roots(b: int, c: int, e: int) -> set:
    """The integer roots of y^3 + b y^2 + c y + e, by the same bisection as
    forms._integer_roots on Cauchy's bracket 1 + max(|b|, |c|, |e|): the
    reference for its Fujiwara bracket."""
    g = _monic_cubic(b, c, e)
    r = 1 + max(abs(b), abs(c), abs(e))
    h = max(b * b - 3 * c, 0)
    roots = set()
    for lo, hi, rising in _monotone_pieces(g, b, h, isqrt(h), -r, r):
        if lo <= hi and rising(hi) >= 0:
            y = _first_rise(rising, lo, hi, hi - lo + 1)
            if g(y) == 0:
                roots.add(y)
    return roots


@pytest.fixture(scope="session")
def reference_integer_roots():
    return _cauchy_integer_roots


def _fraction_coeffs_text(s: CoefficientSeries) -> str:
    """The coeffs CSV of one series written row by row: each a_n as three
    Fractions and an _orbit_count call, indices with a_n = 0
    left out.  The reference for cli.cmd_coeffs, which formats whole
    columns."""
    weighted, ird, rd = (s.thirds(irreducible=i).tolist() for i in (None, True, False))
    lines = ["schema:1", "n,weighted,unweighted,irreducible_weighted,reducible_weighted"]
    for n in range(1, s.max_n + 1):
        if weighted[n]:
            lines.append(
                f"{n},{_frac_str(Fraction(weighted[n], 3))},{_orbit_count(s, n)},"
                f"{_frac_str(Fraction(ird[n], 3))},{_frac_str(Fraction(rd[n], 3))}"
            )
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def reference_coeffs_text():
    return _fraction_coeffs_text


def _depressed(rows: np.ndarray):
    """Floats (p, q, shift): the roots of the dehomogenized cubic are
    y - shift for the roots y of the depressed cubic y^3 + p y + q."""
    a, b, c, d = rows.T.astype(np.float64)
    p = c / a - b * b / (3 * a * a)
    q = 2 * b ** 3 / (27 * a ** 3) - b * c / (3 * a * a) + d / a
    return p, q, b / (3 * a)


def _root_near_mask(rows: np.ndarray, root: np.ndarray, a: int) -> np.ndarray:
    """Rows with a rational root next to the float root: f(y, a) == 0 at
    y = rint(root * a) + {-1, 0, 1}, tested exactly.  a is the common
    |leading coefficient|, so every rational root is some y / a; the test
    finds it whenever |root - y / a| < 1.5 / a.  No bound on the float error
    is proved: at Y = 1e7 it was at most 2.0e-9 over every row of both
    strata."""
    cols = rows.T
    y0 = np.rint(root * a).astype(np.int64)
    red = np.zeros(len(rows), dtype=bool)
    for off in (-1, 0, 1):
        red |= value_at(cols, y0 + off, a) == 0
    return red


def _cardano_real_root(rows: np.ndarray) -> np.ndarray:
    """The real root of the dehomogenized cubic of P < 0 rows (exactly one),
    as a float, by Cardano."""
    p, q, shift = _depressed(rows)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    sq = np.sqrt(np.maximum(disc, 0.0))
    y = np.cbrt(-q / 2 + sq) + np.cbrt(-q / 2 - sq)
    return y - shift


def _float_root_reducible(rows: np.ndarray, a: int) -> np.ndarray:
    """Rows of the P < 0 irreducible stratum's windows at leading
    coefficient a with a rational root, found next to the Cardano float
    root (_root_near_mask): the reference for the exact bisection of
    enumeration._neg_ird_reducible."""
    return _root_near_mask(rows, _cardano_real_root(rows), a)


@pytest.fixture(scope="session")
def reference_neg_root_mask():
    return _float_root_reducible


def _trig_root_reducible(rows: np.ndarray, a: int) -> np.ndarray:
    """Rows of P > 0 (three real roots) with leading coefficient a or -a,
    a >= 1, that have a rational root next to one of the float roots of
    trigonometric Cardano (_root_near_mask): the reference for the exact
    bisection of enumeration._pos_irreducible_mask."""
    p, q, shift = _depressed(rows)
    # P > 0 => three distinct real roots => (q/2)^2 + (p/3)^3 < 0, p < 0
    m = np.sqrt(np.maximum(-p / 3.0, 1e-300))
    phi = np.arccos(np.clip(3.0 * q / (2.0 * p * m), -1.0, 1.0))
    red = np.zeros(len(rows), dtype=bool)
    for k in range(3):
        t = 2.0 * m * np.cos((phi - 2.0 * np.pi * k) / 3.0) - shift
        red |= _root_near_mask(rows, t, a)
    return red


@pytest.fixture(scope="session")
def reference_pos_root_mask():
    return _trig_root_reducible
