"""Complete orbit enumeration for bounded discriminant, plus a brute-force oracle.

The fast path enumerates one representative per SL2(Z)-orbit of integral
binary cubic forms with 1 <= |P| <= Y in three provably complete strata:

* P > 0: forms whose Hessian (A, B, C) is weakly reduced (|B| <= A <= C).
  The syzygy (2*b*A - 3*a*B)^2 + 27*P*a^2 = 4*A^3 bounds the coefficient
  loops: A <= sqrt(P), |a| <= (2/sqrt(27)) P^(1/4), |b| <= sqrt(A) + 1.5|a|.
  Every orbit contains a weakly reduced form with a >= 1, or with a = 0 and
  b >= 1 (negating a form stays in its orbit), so scanning those two strata
  hits every orbit.  Each orbit's canonical representative
  (reduction._canonical_pos) has its negation in the scan (same Hessian,
  first nonzero coefficient positive); a row f is kept iff it is that
  negation, and -f is emitted: one row per orbit.  Where A < C, f is kept
  iff B != -A, so the strict clips B > -A and C > A are the keep rule;
  only the A = C rows (one d per (b, c), every d at b = 0) go through
  _canonical_pos.

* P < 0, irreducible: unique representative with x1 > 0 whose complex root
  lies strictly inside the fundamental domain |Re z| <= 1/2, |z| >= 1.
  Writing the real root rho, the complex pair's sum s1 and s2 = |theta|^2,
  reducedness forces s2 <= (16|P| / (27 a^4))^(1/3) and a bounded rho,
  giving finite (b, c) windows; |s1| < 1 is linear in d.

* P < 0, reducible: unique presentation (p, q, r, 0) with r >= 1 and
  0 <= q < 2r; then P = -r^2 (4pr - q^2), enumerated directly.

At fixed (a, b, c) every condition on d is an exact integer window: the
bound on P is forms._d_windows (an int64 isqrt), |B| <= A, C >= A and
|s1| < 1 are linear in d, and s2 > 1 is quadratic in d (one more isqrt).
The only cut on the rows of the P < 0 irreducible stratum is its
rational-root test (_neg_ird_reducible); the P > 0 irreducibility column
(_pos_irreducible_mask) is the same test, the bisection of
forms.rational_roots (forms._first_rise).  Every scalar bound (the last a
of each stratum, the P < 0 c-windows, the oracle's Hessian cut, MAX_BOX)
is isqrt or forms._icbrt: the one float root left is the column square
root forms._isqrt64.  Each stratum unit (one a, or the r-range of the
reducible stratum) emits its rows in order, and the units are listed in
row order (P > 0 by descending a, since x1 = -a), so no sort is needed:
one pass over neighbours (reduction._lex_less) checks that each stratum's
block strictly increases in its own key, so it has no duplicates.  Each block is column-ordered, the transpose of a (4, N)
block stacked from its coefficient columns and filtered along its second
axis, so every per-row pass (discriminant, residue rows, the order check,
the root tests and the stab and irred columns) reads contiguous columns.
_task_columns gives the stab and irred columns of a unit's rows; the stab
column is the closed-form test of reduction._pos_stab_column.
_stratum_chunks runs consecutive units of one kind as one pass and cuts
their rows at pair boundaries into chunks of at most _CHUNK_ROWS rows, and
_task_orbits yields each chunk's orbits, checked, as a MasterClasses.
The master is written once from that stream, in one pass: each column
grows in place by each chunk's length, and the chunk goes into its new
tail.  Integer arithmetic is int64, exact to MAX_LIMIT (~2.3e9).

The brute-force oracle shares none of the strata.  It scans [-s, s]^4
once, s the stability box (3 * box + 1) // 2 (_box_survivors: the same
exact d-windows of forms, up to MAX_BOX, over one eighth of the box, after
an exact Hessian cut), and keeps one seed per +-pair: the lesser
(reduction._lesser_of_pair) of each scanned form and of its images under
f(x, -y), f(y, x) and both.  It groups the seeds into orbits by BFS under
u(+-1), w twice: at box (cap 4 * box) and at s (cap 6 * box), with a
warning if the class multiset changes.  Each grouping is one orbit_bfs
search from every in-box seed at once; the least seed of a closure owns
it and is its lexmin in-box member, the orbit's representative.
Each grouping computes the columns of its representatives (discriminant,
lattice membership, stabilizer order, irreducibility) with the scalar
functions, once, and every (lattice, sign) selects from them.

The master rows and an oracle grouping are both MasterClasses: orbit
columns (representative, discriminant, stabilizer order, irreducibility,
residue row mod 6, whose one lookup in the residue table is the lattice
membership).  MasterClasses.mask is the one rule for the orbits of a
(lattice, sign) pair: select turns it into row indices and the index n of
each.  Each kind of traffic reads one source.  The one-shot commands read
their pair's stream (_pair_stream: checked first, then the units of its
sign, in L2 (the strata with b, c in 3Z: _STEPS) for an even lattice) and
hold no master: enumerate_classes grows a ClassTable in place by the
pair's rows of each chunk and sorts it once (_lex_order, one np.lexsort),
and series.count_orbits, the one count, bins them for `coeffs` and
density_report.  master_classes builds a two-sign master at each call; the
verify suites memoise one per sublattice (series._verify_master), and the
oracle compares brute_force_classes, which keeps nothing and refuses an
index past 4 * box (_check_reach), with its tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt
from itertools import groupby
from operator import index

import numpy as np

from .forms import (
    _ceil_div,
    _d_windows,
    _first_rise,
    _icbrt,
    _isqrt64,
    _monic_cubic,
    _membership,
    _monotone_pieces,
    _residue_row,
    discriminant,
    index_scale,
    is_irreducible,
    sublattice_of,
)
from .reduction import (
    _canonical_pos,
    _lesser_of_pair,
    _lex_less,
    _pos_stab_column,
    orbit_bfs,
    stabilizer_order,
)


# ---------------------------------------------------------------------------
# shared integer helpers
# ---------------------------------------------------------------------------


_NO_ROWS = np.empty((0, 4), dtype=np.int64)


def _ranges_to_rows(parts: list) -> np.ndarray:
    return np.concatenate([_NO_ROWS, *parts])


def _expand_windows(lo: np.ndarray, hi: np.ndarray):
    """Flatten integer windows [lo_i, hi_i] into (row index, value) arrays;
    the empty windows (hi_i < lo_i) are dropped before any row is built."""
    at = np.flatnonzero(hi >= lo)
    cnt = hi[at] - lo[at] + 1
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # value = lo_i + (position - start_i), start_i the window's first position
    starts = np.cumsum(cnt) - cnt
    vals = (lo[at] - starts).repeat(cnt) + np.arange(total, dtype=np.int64)
    return at.repeat(cnt), vals


# The step of the (b, c) coefficients of each sublattice's strata: the L2
# strata are the L1 strata with b, c (negrd (p, q, r, 0): q, r) in 3Z.
#
# L2 = {3 | x2, x3} is SL2(Z)-invariant: u(1) maps (a, b, c, d) to
# (a, 3a + b, 3a + 2b + c, a + b + c + d) and w to (d, -c, b, -a), and both
# keep 3 | x2, x3; they generate SL2(Z).  So an orbit lies in L2 or misses
# it, and every stratum emits one representative per orbit, so its orbits
# in L2 are exactly its rows with b, c in 3Z.  The coefficients b and c of a
# row come from the stratum's (b, c) pairs (_step_windows), so restricting
# the pairs to 3Z (b in 3Z, each c-window rounded inward) emits those rows
# and no other, in the same order, each with the columns of the full master.
_STEPS = {1: 1, 2: 3}


def _step_windows(bs: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray, step: int) -> tuple:
    """The c-windows c_lo[i] <= c <= c_hi[i] at b = bs[i] in units of step
    (_STEPS): each rounded inward to step Z and divided by step, and emptied
    where b is not in step Z."""
    on = bs % step == 0
    return np.where(on, _ceil_div(c_lo, step), 1), np.where(on, c_hi // step, 0)


def _bc_pairs(bs: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray, step: int = 1) -> tuple:
    """The (b, c) columns of the windows c_lo[i] <= c <= c_hi[i] at b = bs[i],
    with b and c multiples of step (_step_windows).  In lexicographic order
    when bs is increasing."""
    idx, c = _expand_windows(*_step_windows(bs, c_lo, c_hi, step))
    return bs[idx], c * step


def _window_set(windows) -> list:
    """[lo, hi, n]: the windows (w_lo, w_hi) of each pair side by side, as
    two (pairs, windows) arrays, and the number of d in them per pair; all
    three slice as the pairs do."""
    n = sum(np.maximum(w_hi - w_lo + 1, 0) for w_lo, w_hi in windows)
    return [np.stack([w[0] for w in windows], axis=1), np.stack([w[1] for w in windows], axis=1), n]


def _window_rows(a, b: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rows (a_i, b_i, c_i, d) for every d in the windows lo, hi of a
    _window_set at each pair i, a an int or a column; in lexicographic order
    when the pairs are and the windows of a pair are disjoint and increasing.
    Column-ordered: the transpose of a (4, N) block, so each coefficient
    column is contiguous."""
    idx, d = _expand_windows(lo.ravel(), hi.ravel())
    idx //= lo.shape[1]
    x1 = a[idx] if np.ndim(a) else np.full(len(d), a, dtype=np.int64)
    return np.stack([x1, b[idx], c[idx], d]).T


_INT64 = np.iinfo(np.int64)  # its min and max stand for no bound in _clip


def _clip(windows, lo, hi) -> list:
    """Each window (w_lo, w_hi) intersected with [lo, hi]."""
    return [(np.maximum(w_lo, lo), np.minimum(w_hi, hi)) for w_lo, w_hi in windows]


def _at_most(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """(lo, hi): the d with alpha * d <= beta.  Where alpha = 0 the
    condition does not involve d, and no bound is given."""
    step = np.where(alpha == 0, 1, alpha)
    return (
        np.where(alpha < 0, _ceil_div(beta, step), _INT64.min),
        np.where(alpha > 0, beta // step, _INT64.max),
    )


def _only(windows, keep: np.ndarray) -> list:
    """Each (finite) window, emptied where keep is False."""
    return [(w_lo, np.where(keep, w_hi, w_lo - 1)) for w_lo, w_hi in windows]


# ---------------------------------------------------------------------------
# positive-discriminant stratum
# ---------------------------------------------------------------------------


def _pos_bc_windows(a: int, limit: int) -> tuple:
    """(bs, c_lo, c_hi): the b of the weakly Hessian-reduced forms with
    leading coefficient a >= 0 and P <= limit (b >= 1 if a = 0), and the
    c-window of each.  3P = 4AC - B^2 >= 3A^2 gives A <= sqrt(limit)."""
    sqrt_limit = isqrt(limit)
    if a == 0:
        bs = np.arange(1, isqrt(sqrt_limit) + 1, dtype=np.int64)  # A = b^2
        return bs, -bs, bs  # |B| = |bc| <= A for every d
    bmax = isqrt(sqrt_limit) + (3 * a + 1) // 2 + 1
    bs = np.arange(-bmax, bmax + 1, dtype=np.int64)
    # 1 <= A = b^2 - 3ac <= sqrt(limit)
    c_lo = _ceil_div(bs * bs - sqrt_limit, 3 * a)
    c_hi = (bs * bs - 1) // (3 * a)
    c_hi[bmax] = -3 * a  # b = 0: C = c^2 >= A = -3ac asks c <= -3a
    return bs, c_lo, c_hi


def _pos_scan_windows(a, b: np.ndarray, c: np.ndarray, limit: int) -> tuple:
    """(A, k, windows): the Hessian A = b^2 - 3ac of the (b, c) pairs at
    leading coefficient a (an int >= 0, or a column of a >= 1), k = c^2 - A,
    and the d-windows of the weakly reduced rows (|B| <= A <= C).  At fixed
    (a, b, c) each condition is exact in d: 1 <= P <= limit gives the
    windows of _d_windows, and |B| <= A and C >= A, both linear in d, clip
    them."""
    A = b * b - 3 * a * c
    windows = _d_windows(a, b, c, 1, limit)
    if np.ndim(a) or a:  # |B| = |bc - 9ad| <= A
        windows = _clip(windows, _ceil_div(b * c - A, 9 * a), (b * c + A) // (9 * a))
    # C = c^2 - 3bd >= A, i.e. 3bd <= k, bounds d above for b > 0 and below
    # for b < 0 (b = 0 is settled by the c-windows)
    k = c * c - A
    return A, k, _clip(windows, *_at_most(3 * b, k))


def _pos_scan(a: int, limit: int) -> np.ndarray:
    """The weakly Hessian-reduced rows (|B| <= A <= C) with leading
    coefficient a >= 0 (b >= 1 if a = 0) and 1 <= P <= limit, in
    lexicographic order."""
    b, c = _bc_pairs(*_pos_bc_windows(a, limit))
    return _window_rows(a, b, c, *_window_set(_pos_scan_windows(a, b, c, limit)[2])[:2])


def _pos_windows(a, b: np.ndarray, c: np.ndarray, limit: int) -> list:
    """The _window_set of the scan rows (_pos_scan_windows) kept outright,
    then that of its A = C rows, as one list of six arrays.

    A scan row f is kept, and -f emitted, iff -f is canonical
    (reduction._canonical_pos).  Where A < C that holds iff B != -A, so
    the strict clips B > -A and C > A give the rows kept outright.  Only
    the A = C rows go through _canonical_pos (_pos_rows): one d = k / (3b)
    per (b, c), the end of the C clip (every d of the pair c = -3a at
    b = 0)."""
    A, k, windows = _pos_scan_windows(a, b, c, limit)
    if np.ndim(a) or a:  # B = bc - 9ad > -A
        strict = _clip(windows, _INT64.min, (b * c + A - 1) // (9 * a))
    else:  # B = bc > -A = -b^2
        strict = _only(windows, c != -b)
    # C > A, and C = A; at b = 0, C - A = k for every d
    strict = _only(_clip(strict, *_at_most(3 * b, k - 1)), (b != 0) | (k > 0))
    equal = _only(_clip(windows, *_at_most(-3 * b, -k)), (b != 0) | (k == 0))
    return _window_set(strict) + _window_set(equal)


def _pos_rows(a, b, c, lo, hi, counts, edge_lo, edge_hi, edge_counts) -> np.ndarray:
    """The canonical representatives whose negations are the scan rows of
    the pairs (b, c) at a kept by their windows (_pos_windows), in
    lexicographic order: the scan is, so the negated rows are reversed."""
    rows = _window_rows(a, b, c, lo, hi)
    edge = _window_rows(a, b, c, edge_lo, edge_hi)
    edge_pair = np.repeat(np.arange(len(b)), edge_counts)
    # an A = C row ends its pair's rows for b > 0 and starts them for b <= 0
    at = np.cumsum(counts)[edge_pair] - np.where(b > 0, 0, counts)[edge_pair]
    keep = (_canonical_pos(edge) == -edge).all(axis=1)
    block = np.insert(rows.T, at[keep], edge.T[:, keep], axis=1)
    del rows  # not held beside the negated block
    return np.negative(block[:, ::-1]).T


# ---------------------------------------------------------------------------
# negative-discriminant, irreducible stratum (fundamental-domain root)
# ---------------------------------------------------------------------------


def _neg_ird_bc_windows(a: int, limit: int) -> tuple:
    """(bs, c_lo, c_hi) covering the (b, c) of every root-reduced P < 0 form
    with leading coefficient a >= 1 and |P| <= limit.

    With |s1| < 1 < s2: |P| >= 27 a^4 s2^3 / 16 and |P| >= 3 a^4 (|rho| - 1/2)^4,
    so a s2 <= (16 limit / (27 a))^(1/3) and |b| = a |rho + s1| <
    3a/2 + (limit/3)^(1/4); c = a (s2 + rho s1) lies in (-|b|, a s2 + |b| + a).
    """
    bmax = 3 * a // 2 + isqrt(isqrt(limit // 3)) + 1
    bs = np.arange(-bmax, bmax + 1, dtype=np.int64)
    # c < X + |b| + a, X = (16 limit / (27 a))^(1/3), gives c <= floor(X) + |b| + a
    s2a_max = _icbrt(16 * limit // (27 * a))
    return bs, 1 - np.abs(bs), s2a_max + np.abs(bs) + a


def _outside(windows, lo: np.ndarray, hi: np.ndarray, cut: np.ndarray) -> list:
    """Each window without [lo, hi] where cut holds: its piece below lo,
    then its piece above hi (emptied where cut is False).  Disjoint
    increasing windows give disjoint increasing pieces."""
    pieces = []
    for w_lo, w_hi in windows:
        below = (w_lo, np.where(cut, np.minimum(w_hi, lo - 1), w_hi))
        pieces += [below, *_only([(np.maximum(w_lo, hi + 1), w_hi)], cut)]
    return pieces


def _neg_ird_windows(a, b: np.ndarray, c: np.ndarray, limit: int) -> list:
    """The _window_set of the d-windows of the root-reduced rows
    (a, b_i, c_i, d) with -limit <= P <= -1, a >= 1 (an int or a column):
    the exact windows of P, clipped to |s1| < 1 and cut to s2 > 1, each
    exact in d.  The windows also keep d = 0 where c > a, rows with the
    rational root 0."""
    # |s1| < 1, the sign tests of _in_open_domain at (-b -+ a)/a, in d:
    # -(a - b)(a - b + c) < a d < (a + b)(a + b + c)
    windows = _clip(
        _d_windows(a, b, c, -limit, -1),
        (-(a - b) * (a - b + c)) // a + 1,
        _ceil_div((a + b) * (a + b + c), a) - 1,
    )
    # s2 > 1 iff d != 0 and d^2 - b d + a c - a^2 > 0 (reduction._s2_above_one),
    # i.e. |2d - b| > isqrt(D) with D = b^2 - 4a(c - a); no cut where D < 0
    disc = b * b - 4 * a * (c - a)
    s = _isqrt64(np.maximum(disc, 0))
    return _window_set(_outside(windows, _ceil_div(b - s, 2), (b + s) // 2, disc >= 0))


def _neg_ird_reducible(rows: np.ndarray) -> np.ndarray:
    """Rows of _neg_ird_windows with a rational root p/q.  Then q | a, so
    y = a p / q is an integer root of the monic g(y) = f(y, a) / a =
    y^3 + b y^2 + a c y + a^2 d, whose one real root lies in
    (-b - a, -b + a): the |s1| < 1 clip is g(-b - a) < 0 < g(-b + a).  One
    bisection (forms._first_rise) covers that piece of every row, with the
    step bound of the widest (the largest a).  Where the rows' a differ, g
    is read at min(y, -b + a - 1), so a row with a smaller a is read in its
    own piece only."""
    x1, b, c, d = rows.T
    one = len(x1) and (x1 == x1[0]).all()
    a = int(x1[0]) if one else x1  # an int where it can: numpy multiplies by one faster
    g = _monic_cubic(b, a * c, a * a * d)
    hi = a - 1 - b
    width = 2 * int(np.max(a, initial=1)) - 1
    rising = g if one else lambda y: g(np.minimum(y, hi))
    return g(_first_rise(rising, 1 - a - b, hi, width)) == 0


def _neg_ird_rows(a, b, c, lo, hi, _) -> np.ndarray:
    """The irreducible P < 0 representatives of the pairs (b, c) at a: the
    rows of their windows (_neg_ird_windows) without a rational root, in
    lexicographic order."""
    rows = _window_rows(a, b, c, lo, hi)
    return np.compress(~_neg_ird_reducible(rows), rows.T, axis=1).T


# ---------------------------------------------------------------------------
# negative-discriminant, reducible stratum (parabolic presentation)
# ---------------------------------------------------------------------------


def _neg_rd_windows(_, r: np.ndarray, q: np.ndarray, limit: int) -> list:
    """The _window_set of the p-windows of the rows (p, q_i, r_i, 0) with
    1 <= -P = r^2 (4pr - q^2) <= limit: one window per (r, q) pair."""
    return _window_set([(_ceil_div(q * q + 1, 4 * r), (q * q * r * r + limit) // (4 * r ** 3))])


def _neg_rd_rows(_, r, q, lo, hi, __) -> np.ndarray:
    """The rows (p, q, r, 0) of the (r, q) pairs' p-windows
    (_neg_rd_windows), in lexicographic order of (r, q, p) when the pairs
    are in order of (r, q)."""
    idx, p = _expand_windows(lo.ravel(), hi.ravel())
    return np.stack([p, q[idx], r[idx], np.zeros_like(p)]).T


# ---------------------------------------------------------------------------
# master enumeration (all orbits with 1 <= |P| <= Y)
# ---------------------------------------------------------------------------


@dataclass
class MasterClasses:
    """One row per orbit with 1 <= |P(rep)| <= limit, as parallel numpy arrays:
    the master enumeration, or one oracle grouping (its in-box orbits).
    44 bytes a row: reps 32, disc 8, stab 1 (int8), irred 1 and res 2
    (uint16); the (N, 10) membership is the property member, read from res.
    sublattice 2 records that the rows are only the orbits in L2, which
    hold the even lattices and no odd one.  A chunk of _task_orbits holds
    the rows of one chunk of _stratum_chunks, and its sign ('+' or '-',
    None for both) records the sign of P of the stream."""

    limit: int
    reps: np.ndarray  # (N, 4) int64, representatives, one per orbit
    disc: np.ndarray  # (N,) int64, signed P
    stab: np.ndarray  # (N,) int8, 1 or 3
    irred: np.ndarray  # (N,) bool
    res: np.ndarray  # (N,) uint16, residue row mod 6 (forms._residue_row)
    sign: str | None = None  # None: both signs
    sublattice: int = 1  # 2: the orbits in L2 only

    def __len__(self):
        return len(self.disc)

    @property
    def member(self) -> np.ndarray:
        """(N, 10) bool, membership in L1..L10: one lookup of res in the
        residue table (forms._membership)."""
        return _membership(self.res)

    def mask(self, lattice: int, sign: str, max_index: int) -> np.ndarray:
        """The orbits of the (lattice, sign) pair with 1 <= index <= max_index,
        index = |P| // index_scale(lattice), as a bool mask over the rows:
        the one selection rule.  ValueError for a lattice outside 1..10, a
        sign other than '+' or '-', max_index < 1, a sign or (odd on an L2
        master) a lattice the rows do not hold, or an index range past the
        limit; TypeError for a float lattice or max_index."""
        max_index = index(max_index)
        scale = index_scale(lattice)
        positive = _sign_positive(sign)
        if max_index < 1:
            raise ValueError("max_index must be >= 1")
        if self.sign not in (None, sign):
            raise ValueError(f"the master holds the sign {self.sign!r} only, not {sign!r}")
        if self.sublattice not in (1, sublattice_of(lattice)):
            raise ValueError(f"the master holds L2 only, not the odd lattice L{lattice}")
        if max_index * scale > self.limit:
            raise ValueError(
                f"max_index {max_index} needs |P| up to {max_index * scale}, "
                f"past the master's {self.limit}"
            )
        # 1 <= |P| // scale <= max_index, on the side of P that sign names
        lo, hi = scale, (max_index + 1) * scale - 1
        if not positive:
            lo, hi = -hi, -lo
        keep = self.disc >= lo
        keep &= self.disc <= hi
        keep &= _membership(self.res, lattice)
        return keep

    def select(self, lattice: int, sign: str, max_index: int) -> tuple:
        """(rows, n): the indices, in row order, of the rows of the pair's
        mask, and the index n = |P| // index_scale(lattice) of each."""
        rows = np.flatnonzero(self.mask(lattice, sign, max_index))
        return rows, np.abs(self.disc[rows]) // index_scale(lattice)


_COLUMNS = ("reps", "disc", "stab", "irred", "res")  # the row fields of MasterClasses


def _pos_irreducible_mask(rows: np.ndarray) -> np.ndarray:
    """Irreducibility of P > 0 rows (x1, x2, x3, x4), x1 != 0: no integer
    root of g(y) = f(y, x1) / x1 = y^3 + x2 y^2 + x1 x3 y + x1^2 x4
    (forms.rational_roots).  Its depressed cubic has p = -A / 3, A = x2^2 -
    3 x1 x3 (the Hessian's), so its three real roots have |3y + x2| <=
    2 sqrt(A), i.e. <= t = isqrt(4A); exact bisection (forms._first_rise)
    tests each monotone piece of that bracket."""
    x1, b, c, d = rows.T
    g = _monic_cubic(b, x1 * c, x1 * x1 * d)
    A = b * b - 3 * x1 * c
    s = _isqrt64(A)
    t = 2 * s + ((2 * s + 1) ** 2 <= 4 * A)
    red = np.zeros(len(rows), dtype=bool)
    for lo, hi, rising in _monotone_pieces(g, b, A, s, _ceil_div(-b - t, 3), (t - b) // 3):
        width = int(np.max(hi - lo, initial=0)) + 1
        red |= g(_first_rise(rising, lo, hi, width)) == 0
    return ~red


def _stratum_tasks(limit: int, step: int = 1) -> list:
    """The stratum units (kind, arg, limit, step) of a master, in row order:
    one per leading coefficient a of each P > 0 and P < 0 irreducible
    stratum, and one r-range for the reducible one; step 3 restricts every
    unit to L2 (_STEPS).  The units plan the rows; _stratum_chunks cuts
    them into chunks."""
    # 729 a^4 <= 16 P for P > 0, and 27 a^4 < 27 a^4 s2^3 <= 16 |P| for P < 0
    amax_pos = isqrt(isqrt(16 * limit // 729))
    amax_neg = isqrt(isqrt(16 * limit // 27))
    rmax = isqrt(limit // 3) if limit >= 3 else 0
    # x1 = -a on the P > 0 rows: by descending a, the units are in row order
    tasks = [("pos", a, limit, step) for a in range(amax_pos, -1, -1)]
    tasks += [("negird", a, limit, step) for a in range(1, amax_neg + 1)]
    if rmax:
        tasks.append(("negrd", (1, rmax), limit, step))
    return tasks


def _task_columns(task, rows: np.ndarray) -> tuple:
    """(stab, irred) of rows of a stratum unit, a scalar for a constant
    column: P < 0 rows have stab 1, negird rows are irreducible, and negrd
    rows and the P > 0 rows with x1 = 0 (v divides them) are reducible.
    A unit whose irred column is the constant False holds no irreducible
    orbit, so a stream of the irreducible orbits (_pair_stream) skips it."""
    kind, a = task[:2]
    if kind != "pos":
        return 1, kind == "negird"
    return _pos_stab_column(rows), a > 0 and _pos_irreducible_mask(rows)


# The most rows a chunk of the orbit stream holds, unless one (b, c) pair
# ((r, q) for negrd) emits more by itself, and the most pairs whose windows
# one pass computes, unless one b (r) holds more: a big unit is cut at pair
# boundaries.  It sets the stream's peak.  density L1 +- at 1e6 read a
# VmHWM of 40.2, 44.4 and 50.2 MB at 2^14, 2^15 and 2^16 rows, and 47.0 MB
# with one chunk per unit (its largest 123 280 rows), on a 2-core VM
# (Python 3.11, numpy 2.4); their times differed by less than the runs'
# spread.
_CHUNK_ROWS = 2 ** 15

# The most pairs of several units that one pass merges.  A merged pass
# divides by a column of leading coefficients, about 13 times slower per
# element than by one int, so past a few thousand pairs it costs more than
# the numpy calls of the passes it saves: the L2 master at 135 000 took
# 17, 13, 11.6 and 10.7 ms at 2^10, 2^11, 2^12 and 2^13 pairs, and no more
# past that, and density at 1e6 no longer than with one pass per unit.
_MERGE_PAIRS = 2 ** 13


def _cuts(counts: np.ndarray, budget: int, backward: bool = False) -> list:
    """(i, j) for consecutive slices that cover the items, each holding at
    most budget of the counts, or one item that holds more by itself; a
    slice whose counts are all 0 is left out.  In order, or last first
    (backward)."""
    ends = np.cumsum(counts)
    cuts, i = [], 0
    while i < len(ends):
        start = int(ends[i - 1]) if i else 0
        j = max(int(np.searchsorted(ends, start + budget, side="right")), i + 1)
        if ends[j - 1] > start:
            cuts.append((i, j))
        i = j
    return cuts[::-1] if backward else cuts


def _unit_rule(task) -> tuple:
    """The units that run as one pass: those of one kind and, for pos, one
    column rule (x1 = 0, or not: _task_columns)."""
    kind, arg = task[:2]
    return kind, kind == "pos" and arg > 0


def _unit_windows(task) -> tuple:
    """(a, bs, c_lo, c_hi): the b of one stratum unit (r for negrd), the
    c-window (q-window) of each, and the unit's leading coefficient a (0 for
    negrd, which has none)."""
    kind, arg, limit, _ = task
    if kind == "pos":
        return arg, *_pos_bc_windows(arg, limit)
    if kind == "negird":
        return arg, *_neg_ird_bc_windows(arg, limit)
    rs = np.arange(arg[0], arg[1] + 1, dtype=np.int64)
    return 0, rs, np.zeros_like(rs), 2 * rs - 1


# kind -> (the _window_sets of its pairs, the rows of a slice of them)
_PAIR_PASSES = {
    "pos": (_pos_windows, _pos_rows),
    "negird": (_neg_ird_windows, _neg_ird_rows),
    "negrd": (_neg_rd_windows, _neg_rd_rows),
}


def _passes(run: list, backward: bool):
    """The (a, b, c) pair columns of each pass over a run of units of one
    kind: their b (r) and c-windows joined, a run's leading coefficients a
    as a column, cut (_cuts) into passes.  Consecutive units merge into one
    pass while they hold at most _MERGE_PAIRS pairs together, and one unit
    is cut at b into passes of at most _CHUNK_ROWS pairs; a is an int where
    a pass has one unit (numpy divides an int64 column by an int about 13
    times faster than by a column)."""
    _, _, limit, step = run[0]
    units = [_unit_windows(t) for t in run]
    sizes = [len(u[1]) for u in units]  # every unit has a b
    a = np.repeat([u[0] for u in units], sizes)
    bs, c_lo, c_hi = (np.concatenate(col) for col in zip(*(u[1:] for u in units)))
    c_lo, c_hi = _step_windows(bs, c_lo, c_hi, step)
    pairs = np.maximum(c_hi - c_lo + 1, 0)
    starts = np.cumsum([0] + sizes)
    for u, v in _cuts(np.add.reduceat(pairs, starts[:-1]), _MERGE_PAIRS, backward):
        for i, j in _cuts(pairs[starts[u]:starts[v]], _CHUNK_ROWS, backward):
            i, j = i + starts[u], j + starts[u]
            at, c = _expand_windows(c_lo[i:j], c_hi[i:j])
            yield (int(a[i]) if v == u + 1 else a[i:j][at]), bs[i:j][at], c * step


def _stratum_chunks(tasks: list):
    """(unit, rows) for each chunk of the stratum rows of the units, in row
    order; unit is the first of the run that made the chunk, whose column
    rule (_task_columns) the chunk's rows share.

    Consecutive units with one _unit_rule are one run, and a run is one or
    more vectorized passes (_passes).  The rows of a pass's pairs are cut
    at pair boundaries into chunks of at most _CHUNK_ROWS rows, or one
    pair's rows, so small units share a chunk and big ones split.  A P > 0
    run is the scan's rows negated, last first (_pos_rows): its units,
    passes and chunks are taken last first."""
    for _, run in groupby(tasks, _unit_rule):
        run = list(run)
        kind, _, limit, _ = run[0]
        backward = kind == "pos"
        pair_windows, pair_rows = _PAIR_PASSES[kind]
        for pairs in _passes(run[::-1] if backward else run, backward):
            windows = pair_windows(*pairs, limit)
            for k, l in _cuts(sum(windows[2::3]), _CHUNK_ROWS, backward):
                # the pairs k..l - 1 of each column (a stays itself where it is an int)
                yield run[0], pair_rows(*(x[k:l] if np.ndim(x) else x for x in (*pairs, *windows)))


# The key columns in which each kind's block increases: negrd (p, q, r, 0) by (r, q, p)
_BLOCK_KEYS = {"pos": slice(None), "negird": slice(None), "negrd": slice(2, None, -1)}


def _lex_order(cols) -> np.ndarray:
    """Indices that sort the rows of the int64 key columns cols (first key
    first) lexicographically, stably: one np.lexsort of packed words.  Each
    column, shifted to start at 0, spans a known number of bits, and
    adjacent columns share one uint64 word while their bits fit in 64, so a
    word compares as its columns do: exact at every range, a column of 64
    bits taking a word of its own."""
    if not len(cols[0]):
        return np.arange(0)
    words, room = [], 0
    for col in cols:
        lo = int(col.min())
        bits = (int(col.max()) - lo).bit_length()
        shifted = (col - lo).view(np.uint64)  # col - lo, exact modulo 2^64
        if words and bits <= room:
            words[-1] = words[-1] << np.uint64(bits) | shifted
            room -= bits
        else:
            words.append(shifted)
            room = 64 - bits
    return np.lexsort(words[::-1])


def _check_increasing(cols, stratum: str) -> None:
    """AssertionError unless the rows with these key columns (first key
    first, at most 7) strictly increase in lexicographic order
    (reduction._lex_less): an O(n) proof that no two rows are equal."""
    rows = cols.T
    if not _lex_less(rows[:-1], rows[1:]).all():
        raise AssertionError(
            f"duplicate representatives or rows out of order in {stratum} stratum"
        )


# The largest limit Y at which every int64 intermediate of the strata and of
# the column code (discriminant, hessian, the small-matrix images) stays
# below 2^63.  By size, in units of Y^2:
#   - discriminant c^2 (b^2 - 4ac) + d (b (18ac - 4b^2) - 27 a^2 d) of a
#     reducible row (a, b, c, d) = (p, q, r, 0): r = 1 allows p up to
#     (Y + 1) // 4 (r >= 2 allows less), and the partial product 27*a*a is
#     27 p^2 <= 27 ((Y + 1) // 4)^2, about 1.69 Y^2.  This one binds.  The
#     other partials are at most of order Y^(3/2): c^2 (b^2 - 4ac) = -|P|,
#     ac = pr <= (q^2 r^2 + Y) / (4 r^2), and |b (18ac - 4b^2)| <= 4.5 q^3 +
#     4.5 q Y / r^2 with q < 2r, r^2 <= Y / 3.  On a P > 0 row (0, b, c, d)
#     the d term is -4 b^3 d, within |P| + b^2 c^2;
#   - small-matrix images of a P > 0 row (0, b, c, d): b = 1 allows
#     |c| <= 1 and |d| <= Y/4 + 1, so s = |b| + |c| + |d| <= Y/4 + 3.  Image
#     coefficients are at most s (x1, x4) and 3 s (x2, x3), so a Hessian
#     product of an image is at most 9 s^2, about 0.56 Y^2.  The stratum
#     takes images (and their Hessians) of its A = C rows only, which have
#     |d| <= b / 3 at a = 0, and the stabilizer column takes no images (its
#     closed form reads 3a and 3d), so this bound is not reached;
#   - in _neg_rd_windows, q^2 r^2 < 4 r^4 <= 4 Y^2 / 9 (q < 2r, r^2 <= Y/3),
#     and 4 p r^3 <= q^2 r^2 + Y.
# Everything else grows at most like Y^(7/4): the P < 0 irreducible windows
# keep |d| = a |t| s2 of order Y^(7/12), and the P > 0 rows with a != 0 are
# Hessian-reduced.  Measured at Y = 1e4..1e6 with the images of every scan
# row, these maxima matched the terms above (1.6875 Y^2 and 0.5625 Y^2) and
# stayed below Y^(7/4).
# The P < 0 root test (_neg_ird_reducible) evaluates g(y) = f(y, a) / a at
# integers -b - a < y < -b + a only, between the two points at which
# _in_open_domain evaluates f, so |y| <= |b| + a and |y + b| < a.  Its Horner
# partials are at most (a (|b| + a) + a |c|)(|b| + a) + a^2 |d|, of order
# Y^(13/12); over every window row at Y = 1e5, 1e6 and 1e7 that bound was
# at most 0.34 Y.
# The P > 0 root test (_pos_irreducible_mask) reads g(y) = f(y, x1) / x1 on
# the bracket of its roots, |3y + x2| <= 2 sqrt(A), so |y| <= (|x2| +
# 2 sqrt(A)) / 3, and, since one call has one width, up to the chunk's widest
# bracket, 4 Y^(1/4) / 3 + 1, past a row's own piece (values that mid < hi
# masks).  With A <= sqrt(Y), |x1 x3| <= (x2^2 + A) / 3 and, by |B| <= A,
# |x1^2 x4| <= |x1| (|x2 x3| + A) / 9, so its Horner partials are of order
# Y^(3/4); over every point read at Y = 1e5, 1e6 and 1e7 they were at most
# 0.13 Y^(3/4) (test_pos_root_test_at_int64_edge reads rows at MAX_LIMIT).
# The d-windows (forms._d_windows) take the isqrt of 4 H^3 - alpha k, a
# quarter of B2^2 + 4 alpha (C2 - k), and are exact while (isqrt(n) + 1)^2
# < 2^63 for n = B2^2 + 4 alpha (|C2| + Y), which grows like Y^(3/2).  Over
# the strata's (b, c) windows at Y = MAX_LIMIT it is at most 2.45e18
# (0.27 * 2^63, P < 0 at a = 192) and 1.55e16 for P > 0
# (test_strata_windows_exact_at_max_limit).
MAX_LIMIT = 4 * isqrt((2 ** 63 - 1) // 27) + 2  # 2_337_884_074


def _check_selection(limit: int, sublattice: int) -> int:
    """limit as an int, after the checks of a selection: ValueError for
    limit < 1 or past MAX_LIMIT, the bound of exact int64 arithmetic, or a
    sublattice other than 1 or 2; TypeError for a float limit."""
    limit = index(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > MAX_LIMIT:
        raise ValueError(f"limit {limit} exceeds the int64 safety bound {MAX_LIMIT}")
    if sublattice not in _STEPS:
        raise ValueError(f"sublattice must be 1 or 2, got {sublattice!r}")
    return limit


def _task_orbits(tasks: list, limit: int, sign, sublattice: int):
    """The orbits of the stratum units, one MasterClasses chunk for each
    chunk of _stratum_chunks (at most _CHUNK_ROWS = 2^15 rows, unless one
    pair holds more; the census peaks beside _CHUNK_ROWS set it), in turn.  Each stratum emits one row per orbit, in order;
    verify rather than assume: a block strictly increases in its own key
    iff each chunk's rows do and each chunk's first row follows the last
    row of its kind so far, and every P is nonzero and within limit before
    the chunk is yielded, so no consumer sees a chunk that fails a check."""
    last = {}  # kind -> the key of the last row of the kind so far
    for task, rows in _stratum_chunks(tasks):
        kind = task[0]
        keys = rows[:, _BLOCK_KEYS[kind]]
        _check_increasing(keys.T, kind)
        if len(rows):
            _check_increasing(np.concatenate([last.get(kind, keys[:0]), keys[:1]]).T, kind)
            last[kind] = keys[-1:].copy()  # not a view: the rows go with the chunk
        disc = discriminant(rows.T)
        if not ((disc != 0).all() and (np.abs(disc) <= limit).all()):
            raise AssertionError("enumeration produced out-of-range discriminants")
        stab, irred = _task_columns(task, rows)
        res = _residue_row(rows.T).astype(np.uint16)
        stab = np.broadcast_to(np.asarray(stab, dtype=np.int8), len(rows))
        irred = np.broadcast_to(irred, len(rows))
        yield MasterClasses(limit, rows, disc, stab, irred, res, sign, sublattice)


def _pair_stream(lattice: int, sign: str, max_index: int, irreducible: bool = False):
    """The _task_orbits stream of the (lattice, sign) pair up to index
    max_index: the units of the sign of P, in L2 (_STEPS) for an even
    lattice; with irreducible, only those whose irred column is not the
    constant False (_task_columns).  Every check runs before any unit:
    TypeError for a float max_index or lattice, ValueError for max_index
    < 1, a bad sign or lattice, or a limit past MAX_LIMIT."""
    max_index = index(max_index)
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    positive = _sign_positive(sign)
    sublattice = sublattice_of(lattice)
    limit = _check_selection(max_index * index_scale(lattice), sublattice)
    tasks = [t for t in _stratum_tasks(limit, _STEPS[sublattice]) if (t[0] == "pos") == positive]
    if irreducible:
        tasks = [t for t in tasks if _task_columns(t, _NO_ROWS)[1] is not False]
    return _task_orbits(tasks, limit, sign, sublattice)


def master_classes(limit: int, *, sublattice: int = 1) -> MasterClasses:
    """All orbits with 1 <= |P| <= limit, both signs, in the full integer
    lattice L1 or, with sublattice=2, in L2 = {3 | x2, x3}, which holds the
    even lattices.  Each call checks its arguments (_check_selection), then
    builds and returns a master of its own.

    The rows are in master row order: one pass over the _task_orbits
    stream grows each column by each chunk, of at most _CHUNK_ROWS = 2^15
    rows unless one pair holds more (at 1e7, 2.5 M rows: the pairs b = 1 of
    the P > 0 unit a = 0, and r = 1 of the reducible one), so the transient
    of a chunk stays small beside the columns.  An L2 master is built
    by the same strata with the step 3 (_STEPS): it holds exactly the L1
    master's rows in L2, in order, because L2 is SL2(Z)-invariant, so every
    orbit in L2 has its representative there.
    """
    limit = _check_selection(limit, sublattice)
    columns = (  # in the order of _COLUMNS, empty until the first chunk
        np.empty((0, 4), dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int8),
        np.empty(0, dtype=bool),
        np.empty(0, dtype=np.uint16),
    )
    # Each column grows in place by the chunk's length (ndarray.resize: a
    # realloc, an mremap for a large block on glibc, so no row is held
    # twice), and the chunk is written into the new tail.  resize may move
    # the buffer, so it runs unchecked (refcheck=False) only because no view
    # of a column exists while it grows: the tail written is a temporary,
    # and the MasterClasses is made after the last chunk.
    tasks = _stratum_tasks(limit, _STEPS[sublattice])
    for chunk in _task_orbits(tasks, limit, None, sublattice):
        for name, column in zip(_COLUMNS, columns):
            end = len(column)
            column.resize((end + len(chunk), *column.shape[1:]), refcheck=False)
            column[end:] = getattr(chunk, name)
    return MasterClasses(limit, *columns, sublattice=sublattice)


# ---------------------------------------------------------------------------
# one (lattice, sign) pair as a table
# ---------------------------------------------------------------------------


def _sign_positive(sign: str) -> bool:
    """True for '+', False for '-'; ValueError for any other sign."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return sign == "+"


@dataclass
class ClassTable:
    """The orbits of one (lattice, sign) pair as parallel numpy columns,
    sorted by (index, representative) in lexicographic order."""

    lattice: int
    sign: str  # '+' or '-'
    n: np.ndarray  # (N,) int64, index
    reps: np.ndarray  # (N, 4) int64, canonical representatives
    stab: np.ndarray  # (N,) int8, 1 or 3
    irred: np.ndarray  # (N,) bool

    def __len__(self):
        return len(self.n)

    def class_multiset(self) -> list:
        """The sorted (n, stab, irred) triples of the rows, as Python ints and
        bools: what the enumeration and the oracle must agree on."""
        return sorted(zip(self.n.tolist(), self.stab.tolist(), self.irred.tolist()))


def _class_table(chunks, lattice: int, sign: str, max_index: int) -> ClassTable:
    """The ClassTable of the orbits of one (lattice, sign) pair with
    1 <= index <= max_index that the chunks (a master, or the _task_orbits
    stream) select (MasterClasses.select), sorted once.  Its columns grow
    in place by each chunk's selection, as master_classes' do, and are
    reordered one at a time, each through one temporary."""
    n, reps = np.empty(0, dtype=np.int64), np.empty((0, 4), dtype=np.int64)
    stab, irred = np.empty(0, dtype=np.int8), np.empty(0, dtype=bool)
    for chunk in chunks:
        rows, n_rows = chunk.select(lattice, sign, max_index)
        end = len(n)
        for column in (n, reps, stab, irred):
            # no view of a column exists while it grows (master_classes)
            column.resize((end + len(rows), *column.shape[1:]), refcheck=False)
        n[end:] = n_rows
        for j in range(4):  # one column's gather at a time
            reps[end:, j] = chunk.reps[rows, j]
        stab[end:] = chunk.stab[rows]
        irred[end:] = chunk.irred[rows]
        del rows, n_rows  # not held while the next chunk is made
    order = _lex_order([n, *reps.T])
    for column in (n, *reps.T, stab, irred):
        column[...] = column[order]
    return ClassTable(lattice, sign, n, reps, stab, irred)


def enumerate_classes(lattice: int, sign: str, max_index: int) -> ClassTable:
    """The ClassTable of the orbits in the lattice with 1 <= index <= max_index.

    The index is |P| for odd lattices and |Q| = |P|/27 for even lattices.
    The rows come from the pair's stream (_pair_stream: the units of the
    sign, in L2 for an even lattice; its checks run first), and no master
    is built.
    """
    return _class_table(_pair_stream(lattice, sign, max_index), lattice, sign, max_index)


# ---------------------------------------------------------------------------
# brute-force oracle: box scan + BFS grouping
# ---------------------------------------------------------------------------


def _scan_window_bound(box: int, p_limit: int) -> int:
    """The largest n = B2^2 + 4 alpha (C2 + p_limit) over the box, four
    times the largest 4 H^3 + alpha p_limit whose isqrt _d_windows takes,
    reached at a = b = -c = box: there |B2| = 22 box^3 and C2 = 5 box^4."""
    return 1024 * box ** 6 + 108 * box ** 2 * p_limit


# The largest box at which the exact windows stay in int64 for every
# p_limit <= MAX_LIMIT: _d_windows is exact while (isqrt(n) + 1)^2 < 2^63
# for the largest n, _scan_window_bound(box, MAX_LIMIT).  |4 H^3| is at
# most n / 4, and every other intermediate (g0 +- s, the discriminant of a
# box row) is of order box^4 or smaller.
MAX_BOX = _icbrt(isqrt(2 ** 63 // 1024))  # from the box^6 term alone
while (isqrt(_scan_window_bound(MAX_BOX, MAX_LIMIT)) + 1) ** 2 >= 2 ** 63:
    MAX_BOX -= 1  # 455


def stability_box(box: int) -> int:
    """The box of brute_force_classes' stability re-run, the box it scans.
    ValueError for box < 1, or for a stability box past MAX_BOX."""
    if box < 1:
        raise ValueError("box must be >= 1")
    scan = (3 * box + 1) // 2
    if scan > MAX_BOX:
        raise ValueError(f"box {box} scans at box {scan}, past the int64 safety bound {MAX_BOX}")
    return scan


def _check_reach(max_index: int, box: int) -> None:
    """ValueError for a box stability_box refuses or for max_index > 4 * box,
    the oracle's reach: f = (p, 3, 3, 0) = x (p x^2 + 3 x y + 3 y^2), of
    index 4p - 3 in L2- and L6-, has |f(x, y)| >= p at integers x != 0
    (its quadratic factor is 3 (y + x/2)^2 + (p - 3/4) x^2), and an SL2(Z)
    image has x1 = f(alpha, gamma), x4 = f(beta, delta) with alpha, beta
    not both 0, so at p = box + 1 no form of the orbit is in the box."""
    stability_box(box)
    if max_index > 4 * box:
        raise ValueError(f"index {max_index} exceeds 4 * box = {4 * box}, the oracle's reach")


def _hessian_floor(a: int, p_limit: int) -> int:
    """h0 = max{h >= 0 : 4 h^3 <= 27 a^2 p_limit}, for a >= 1."""
    return _icbrt(27 * a * a * p_limit // 4)


# f(x, -y): (a, b, c, d) -> (a, -b, c, -d), as a column sign pattern
_MIRROR = np.array([1, -1, 1, -1], dtype=np.int64)


def _box_survivors(box: int, p_limit: int, sublattice: int) -> np.ndarray:
    """The seeds of the box: one form of each +-pair in [-box, box]^4 with
    1 <= |P| <= p_limit, the lesser (reduction._lesser_of_pair), in
    lexicographic order, each once, in the sublattice L1 or L2 (b, c in
    3Z: _STEPS).

    The box, P and L2 are invariant under the signed permutations of GL2(Z):
    f(x, -y) = (a, -b, c, -d), f(y, x) = (d, c, b, a) and f(-x, -y) = -f
    (GL2 acts on P by det^6 = 1).  They map the domain a >= 0, b >= 0,
    |c| <= b (b >= 1 at a = 0) onto every form with P != 0: negation makes
    a >= 0 and f(x, -y) then b >= 0; if still |c| > b, f(y, x) and then
    f(-x, y) = (-a, b, -c, d) and f(x, -y) as needed give a' >= 0 and
    b' = |c| > b = |c'|.  (At a = b = 0 the domain forces c = 0, hence
    P = 0.)  Only that domain is scanned.  With -f the maps generate the
    group (order 8, with -f = (f(y, x) o f(x, -y))^2), so its images under
    the identity, f(x, -y), f(y, x) and both meet every +-pair; each image
    goes through _lesser_of_pair, and a lexicographic sort with an
    adjacent-row diff drops the pairs met twice (the domain's edges
    a = 0, b = 0, |c| = b).

    For a >= 1, 27 a^2 P = 4 H^3 - G^2 with H = b^2 - 3ac (the Hessian's
    A) and G = 2b^3 - 9abc + 27a^2 d, so P >= -p_limit needs H >= -h0
    (_hessian_floor): the (b, c) pairs with 3ac > b^2 + h0 are dropped
    before any d.  For each remaining (a, b, c), |P| <= p_limit confines d
    to the exact integer windows of _d_windows, and the exact test p != 0,
    |p| <= p_limit runs on every candidate.
    """
    side = np.arange(-box, box + 1, dtype=np.int64)
    bc_side = side[side % _STEPS[sublattice] == 0]
    b, c = (g.ravel() for g in np.meshgrid(bc_side, bc_side, indexing="ij"))
    wedge = np.abs(c) <= b
    b, c = b[wedge], c[wedge]
    chunks = []
    for a in range(box + 1):
        keep = b > 0 if a == 0 else 3 * a * c <= b * b + _hessian_floor(a, p_limit)
        ab, ac = b[keep], c[keep]
        windows = _clip(_d_windows(a, ab, ac, -p_limit, p_limit), -box, box)
        rows = _window_rows(a, ab, ac, *_window_set(windows)[:2])
        p = discriminant(rows.T)
        chunks.append(np.compress((p != 0) & (np.abs(p) <= p_limit), rows.T, axis=1).T)
    rows = _ranges_to_rows(chunks)
    rows = np.concatenate([rows, rows * _MIRROR])
    rows = np.concatenate([rows, rows[:, ::-1]])
    _lesser_of_pair(rows)
    rows = rows[_lex_order(rows.T)]
    fresh = (rows[1:] != rows[:-1]).any(axis=1)
    return np.concatenate([rows[:1], rows[1:][fresh]])


def _group_box_orbits(
    survivors: np.ndarray, box: int, p_limit: int, cap: int, sublattice: int
) -> MasterClasses:
    """Group the box survivors into orbits: their lexmin in-box reps, in
    lexicographic order, and the columns of each.  survivors are the seeds
    of _box_survivors at a box >= box (_oracle_orbits), cut to box here.

    One orbit_bfs call from all the seeds groups them.  A closure is
    closed under negation, so its lexmin in-box member is a seed, the least
    one: the representative, the seed that owns itself.  A closure's in-box
    members are all a seed or its negation (they share P, and L2 is
    invariant), so no form reached past the seeds may lie in the box.
    """
    inside = ((survivors >= -box) & (survivors <= box)).all(axis=1)
    seeds = survivors if inside.all() else survivors[inside]
    owner, reached = orbit_bfs(seeds, cap)
    if ((reached >= -box) & (reached <= box)).all(axis=1).any():
        raise AssertionError("a closure's in-box member is not a box survivor")
    rows = seeds[owner == np.arange(len(seeds))]
    reps = list(map(tuple, rows.tolist()))
    cols = rows.T
    return MasterClasses(
        p_limit,
        rows,
        discriminant(cols),
        np.array([stabilizer_order(f) for f in reps], dtype=np.int8),
        np.array([is_irreducible(f) for f in reps], dtype=bool),
        _residue_row(cols).astype(np.uint16),
        sublattice=sublattice,
    )


def _oracle_orbits(p_limit: int, box: int, sublattice: int) -> tuple:
    """(orbits, wider): the _group_box_orbits groupings at box, cap 4 * box,
    and at stability_box(box), cap 6 * box, of one scan at the larger box."""
    scan_box = stability_box(box)
    survivors = _box_survivors(scan_box, p_limit, sublattice)
    return (
        _group_box_orbits(survivors, box, p_limit, 4 * box, sublattice),
        _group_box_orbits(survivors, scan_box, p_limit, 6 * box, sublattice),
    )


def brute_force_classes(
    lattice: int, sign: str, max_index: int, box: int, *, _groupings: tuple | None = None
) -> ClassTable:
    """Independent oracle: box enumeration + BFS orbit grouping, returned as
    the ClassTable of the pair, in the order of enumerate_classes.

    The survivors of the scan are grouped by one orbit_bfs search from all
    of them (_group_box_orbits), and each orbit is named by its lexmin
    in-box form.  Correct only when every orbit with index <= max_index has
    a member in [-box, box]^4 and box members are BFS-connected within the
    cap 4 * box.  Every call repeats the run at stability_box(box) =
    (3 * box + 1) // 2 with the cap 6 * box, and warns if the class
    multiset changes; one scan at that box serves both (_oracle_orbits),
    and nothing is kept: a caller of many pairs (cli.verify_oracle) passes
    their sublattice's as _groupings.  ValueError, before any scan, for
    max_index < 1, a box stability_box refuses, |P| past MAX_LIMIT, the
    bound of exact int64 arithmetic, or max_index past the reach 4 * box
    (_check_reach).  TypeError for a float max_index or box.
    """
    max_index, box = index(max_index), index(box)
    _sign_positive(sign)
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    scan_box = stability_box(box)
    p_limit = _check_selection(max_index * index_scale(lattice), sublattice_of(lattice))
    _check_reach(max_index, box)
    # the even lattices lie in L2, where 27 divides P, so |P| // 27 is exact
    orbits, wider = _groupings or _oracle_orbits(p_limit, box, sublattice_of(lattice))
    table = _class_table([orbits], lattice, sign, max_index)
    if table.class_multiset() != _class_table([wider], lattice, sign, max_index).class_multiset():
        warnings.warn(
            f"brute_force_classes unstable under box growth ({box} -> {scan_box}) "
            f"for (L{lattice}, {sign}); results may be incomplete", stacklevel=2,
        )
    return table
