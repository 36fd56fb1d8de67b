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
is isqrt or forms._icbrt: the one float root left is the corrected column
square root forms._isqrt64.  Each task emits its rows in order, and the
tasks are listed in row order (P > 0 by descending a, since x1 = -a), so
no sort is needed: one pass over neighbours (reduction._lex_less) checks
that each stratum's block strictly increases in its own key, so it has no
duplicates.  _task_columns gives the stab and irred columns of each task.
_task_orbits yields each task's orbits, checked, as a MasterClasses chunk.
The master is written once from that stream, in two passes: the first sums
each task's row bound from its exact windows (_task_bound) with no row
expanded and sizes every column once; the second writes each chunk into
the next slice.  Integer arithmetic is int64, exact to MAX_LIMIT (~2.3e9).

The brute-force oracle shares none of the strata: it scans the box
[-box, box]^4 with the same d-windows of forms (exact up to box = MAX_BOX)
and groups the survivors into orbits by BFS under u(+-1), w.  The box, P
and L2 are invariant under the signed permutations f(x, -y), f(y, x), -f,
so the scan covers one eighth of the box (a >= 0, b >= 0, |c| <= b) and
adds the images.  Before the windows, an exact Hessian cut drops the
(a, b, c) with a >= 1 and 3ac > b^2 + h0: by 27 a^2 P = 4 H^3 - G^2
(H = b^2 - 3ac), P >= -p_limit needs 4 (-H)^3 <= 27 a^2 p_limit.  Each
grouping is one orbit_bfs search from every in-box survivor whose first
nonzero coefficient is negative (one form of each +-pair) at once; the
least seed of a closure owns it and is its lexmin in-box member, the
orbit's representative.  Each grouping computes the columns of its
representatives (discriminant, lattice membership, stabilizer order,
irreducibility) with the scalar functions, once, and every (lattice, sign)
selects from them.

The master rows and an oracle grouping are both MasterClasses: orbit
columns (representative, discriminant, stabilizer order, irreducibility,
residue row mod 6, whose one lookup in the residue table is the lattice
membership).  MasterClasses.mask is the one rule for the orbits of a
(lattice, sign) pair: select turns it into row indices and the index n of
each, enumerate_classes and brute_force_classes return those rows as a
ClassTable (in the order of _lex_order), and series.count_orbits, the one
count, bins them chunk by chunk: over one master for the series of the
verify suites, over the _task_orbits stream of a sign for `coeffs` and
density_report, which hold no master.  master_classes can also build a
selection, one sign of P, or the orbits in L2 = {3 | x2, x3} only (the same
strata with b, c in 3Z: _STEPS), from the stratum tasks of that sign.
enumerate_classes builds the sign it lists, in L2 for an even lattice
(forms.sublattice_of), and the cache keeps masters by (limit, sign,
sublattice).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt
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
    """Flatten integer windows [lo_i, hi_i] into (row index, value) arrays."""
    cnt = np.maximum(hi - lo + 1, 0)
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    idx = np.repeat(np.arange(len(lo)), cnt)
    starts = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    vals = lo.repeat(cnt) + (np.arange(total, dtype=np.int64) - starts.repeat(cnt))
    return idx, vals


# The step of the (b, c) coefficients of each sublattice's strata: the L2
# strata are the L1 strata with b, c (negrd (p, q, r, 0): q, r) in 3Z.
#
# L2 = {3 | x2, x3} is SL2(Z)-invariant: u(1) maps (a, b, c, d) to
# (a, 3a + b, 3a + 2b + c, a + b + c + d) and w to (d, -c, b, -a), and both
# keep 3 | x2, x3; they generate SL2(Z).  So an orbit lies in L2 or misses
# it, and every stratum emits one representative per orbit, so its orbits
# in L2 are exactly its rows with b, c in 3Z.  The coefficients b and c of a
# row come from the stratum's (b, c) pairs (_bc_pairs), so restricting the
# pairs to 3Z (b in 3Z, each c-window rounded inward) emits those rows and
# no other, in the same order, each with the columns of the full master.
_STEPS = {1: 1, 2: 3}


def _bc_pairs(bs: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray, step: int = 1) -> tuple:
    """The (b, c) columns of the windows c_lo[i] <= c <= c_hi[i] at b = bs[i],
    with b and c multiples of step (_STEPS): the b in step Z, each c-window
    rounded inward to step Z.  In lexicographic order when bs is increasing."""
    on = bs % step == 0
    idx, c = _expand_windows(_ceil_div(c_lo[on], step), c_hi[on] // step)
    return bs[on][idx], c * step


def _window_rows(a: int, b: np.ndarray, c: np.ndarray, windows) -> np.ndarray:
    """The rows (a, b_i, c_i, d) for every d in the windows (lo, hi) of each
    (b_i, c_i); in lexicographic order when the (b, c) pairs are and the
    windows of a pair are disjoint and increasing."""
    lo = np.stack([w[0] for w in windows], axis=1).ravel()
    hi = np.stack([w[1] for w in windows], axis=1).ravel()
    idx, d = _expand_windows(lo, hi)
    idx //= len(windows)
    return np.stack([np.full(len(d), a, dtype=np.int64), b[idx], c[idx], d], axis=1)


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


def _pos_windows(a: int, limit: int, step: int = 1) -> tuple:
    """(b, c, A, k, windows): the (b, c) pairs of _pos_scan (b, c in step Z),
    their Hessian A = b^2 - 3ac and k = c^2 - A, and the d-windows of each
    pair.  At fixed (b, c) each condition is exact in d: 1 <= P <= limit
    gives the windows of _d_windows, and |B| <= A and C >= A, both linear in
    d, clip them."""
    b, c = _bc_pairs(*_pos_bc_windows(a, limit), step)
    A = b * b - 3 * a * c
    windows = _d_windows(a, b, c, 1, limit)
    if a:  # |B| = |bc - 9ad| <= A
        windows = _clip(windows, _ceil_div(b * c - A, 9 * a), (b * c + A) // (9 * a))
    # C = c^2 - 3bd >= A, i.e. 3bd <= k, bounds d above for b > 0 and below
    # for b < 0 (b = 0 is settled by the c-windows)
    k = c * c - A
    return b, c, A, k, _clip(windows, *_at_most(3 * b, k))


def _pos_scan(a: int, limit: int) -> np.ndarray:
    """The weakly Hessian-reduced rows (|B| <= A <= C) with leading
    coefficient a >= 0 (b >= 1 if a = 0) and 1 <= P <= limit, in
    lexicographic order."""
    b, c, _, _, windows = _pos_windows(a, limit)
    return _window_rows(a, b, c, windows)


def _pair_counts(windows) -> np.ndarray:
    """The number of d in the windows of each (b, c) pair."""
    return sum(np.maximum(w_hi - w_lo + 1, 0) for w_lo, w_hi in windows)


def _pos_stratum(a: int, limit: int, step: int = 1) -> np.ndarray:
    """The canonical representatives whose negation has leading coefficient
    a, in lexicographic order; over all a >= 0, one row per orbit with
    1 <= P <= limit (with step 3, per orbit in L2: _STEPS).

    A scan row f is kept, and -f emitted, iff -f is canonical
    (reduction._canonical_pos).  Where A < C that holds iff B != -A, so
    the strict clips B > -A and C > A give the rows kept outright.  Only
    the A = C rows go through _canonical_pos: one d = k / (3b) per (b, c),
    the end of the C clip (every d of the pair c = -3a at b = 0).  The
    scan is in lexicographic order, so the negated rows are reversed."""
    b, c, A, k, windows = _pos_windows(a, limit, step)
    if a:  # B = bc - 9ad > -A
        strict = _clip(windows, _INT64.min, (b * c + A - 1) // (9 * a))
    else:  # B = bc > -A = -b^2
        strict = _only(windows, c != -b)
    # C > A, and C = A; at b = 0, C - A = k for every d
    strict = _only(_clip(strict, *_at_most(3 * b, k - 1)), (b != 0) | (k > 0))
    equal = _only(_clip(windows, *_at_most(-3 * b, -k)), (b != 0) | (k == 0))
    rows = _window_rows(a, b, c, strict)
    edge = _window_rows(a, b, c, equal)
    edge_pair = np.repeat(np.arange(len(b)), _pair_counts(equal))
    # an A = C row ends its pair's rows for b > 0 and starts them for b <= 0
    counts = _pair_counts(strict)
    at = np.cumsum(counts)[edge_pair] - np.where(b > 0, 0, counts)[edge_pair]
    keep = (_canonical_pos(edge) == -edge).all(axis=1)
    rows = np.insert(rows, at[keep], edge[keep], axis=0)[::-1]
    return np.negative(rows, out=rows)


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


def _neg_ird_windows(a: int, b: np.ndarray, c: np.ndarray, limit: int) -> list:
    """The d-windows of the root-reduced rows (a, b_i, c_i, d) with
    -limit <= P <= -1, a >= 1: the exact windows of P, clipped to
    |s1| < 1 and cut to s2 > 1, each exact in d.  The windows also keep
    d = 0 where c > a, rows with the rational root 0."""
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
    return _outside(windows, _ceil_div(b - s, 2), (b + s) // 2, disc >= 0)


def _neg_ird_reducible(rows: np.ndarray, a: int) -> np.ndarray:
    """Rows of _neg_ird_windows at leading coefficient a with a rational
    root p/q.  Then q | a, so y = a p / q is an integer root of the monic
    g(y) = f(y, a) / a = y^3 + b y^2 + a c y + a^2 d, whose one real root
    lies in (-b - a, -b + a): the |s1| < 1 clip is g(-b - a) < 0 <
    g(-b + a).  One bisection (forms._first_rise) covers that piece."""
    _, b, c, d = rows.T
    g = _monic_cubic(b, a * c, a * a * d)
    return g(_first_rise(g, 1 - a - b, a - 1 - b, 2 * a - 1)) == 0


def _neg_ird_pair_windows(a: int, limit: int, step: int = 1) -> tuple:
    """(b, c, windows): the (b, c) pairs of the P < 0 irreducible stratum at
    leading coefficient a >= 1 (b, c in step Z) and the exact d-windows of
    each (_neg_ird_windows)."""
    b, c = _bc_pairs(*_neg_ird_bc_windows(a, limit), step)
    return b, c, _neg_ird_windows(a, b, c, limit)


def _neg_ird_stratum(a: int, limit: int, step: int = 1) -> np.ndarray:
    """The irreducible P < 0 representatives with leading coefficient a >= 1,
    -limit <= P <= -1 and b, c in step Z, in lexicographic order: the rows
    of the exact d-windows (_neg_ird_pair_windows) without a rational root."""
    rows = _window_rows(a, *_neg_ird_pair_windows(a, limit, step))
    return rows[~_neg_ird_reducible(rows, a)]


# ---------------------------------------------------------------------------
# negative-discriminant, reducible stratum (parabolic presentation)
# ---------------------------------------------------------------------------


def _neg_rd_windows(r_lo: int, r_hi: int, limit: int, step: int = 1) -> tuple:
    """(r, q, lo, hi): the pairs r in [r_lo, r_hi], 0 <= q < 2r, q and r in
    step Z, in lexicographic order, and the window lo <= p <= hi of each:
    1 <= -P = r^2 (4pr - q^2) <= limit."""
    rs = np.arange(r_lo, r_hi + 1, dtype=np.int64)
    r, q = _bc_pairs(rs, np.zeros_like(rs), 2 * rs - 1, step)
    return r, q, _ceil_div(q * q + 1, 4 * r), (q * q * r * r + limit) // (4 * r ** 3)


def _neg_rd_stratum(r_lo: int, r_hi: int, limit: int, step: int = 1) -> np.ndarray:
    """Rows (p, q, r, 0) of the windows of _neg_rd_windows, in lexicographic
    order of (r, q, p)."""
    r, q, lo, hi = _neg_rd_windows(r_lo, r_hi, limit, step)
    idx, p = _expand_windows(lo, hi)
    return np.stack([p, q[idx], r[idx], np.zeros_like(p)], axis=1)


# ---------------------------------------------------------------------------
# master enumeration (all orbits with 1 <= |P| <= Y)
# ---------------------------------------------------------------------------


@dataclass
class MasterClasses:
    """One row per orbit with 1 <= |P(rep)| <= limit, as parallel numpy arrays:
    the master enumeration, or one oracle grouping (its in-box orbits).
    44 bytes a row: reps 32, disc 8, stab 1 (int8), irred 1 and res 2
    (uint16); the (N, 10) membership is the property member, read from res.
    sign ('+' or '-') and sublattice record a selection: the rows are then
    only the orbits of that sign of P, or (sublattice 2) only the orbits in
    L2, which hold the even lattices and no odd one.  A chunk of
    _task_orbits holds one stratum task's rows."""

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
    """The stratum tasks (kind, arg, limit, step) of a master, in row order;
    step 3 restricts every task to L2 (_STEPS)."""
    # 729 a^4 <= 16 P for P > 0, and 27 a^4 < 27 a^4 s2^3 <= 16 |P| for P < 0
    amax_pos = isqrt(isqrt(16 * limit // 729))
    amax_neg = isqrt(isqrt(16 * limit // 27))
    rmax = isqrt(limit // 3) if limit >= 3 else 0
    # x1 = -a on the P > 0 rows: by descending a, the tasks are in row order
    tasks = [("pos", a, limit, step) for a in range(amax_pos, -1, -1)]
    tasks += [("negird", a, limit, step) for a in range(1, amax_neg + 1)]
    # 16 r-ranges: one range (one array of nearly all the stratum's rows)
    # raised peak RSS by about 25 MB at Y = 1e6, through glibc's mmap threshold
    width = max(1, rmax // 16)
    r = 1
    while r <= rmax:
        tasks.append(("negrd", (r, min(r + width - 1, rmax)), limit, step))
        r += width
    return tasks


def _run_task(task) -> tuple:
    kind, arg, limit, step = task
    if kind == "pos":
        return kind, _pos_stratum(arg, limit, step)
    if kind == "negird":
        return kind, _neg_ird_stratum(arg, limit, step)
    return kind, _neg_rd_stratum(*arg, limit, step)


def _task_columns(task, rows: np.ndarray) -> tuple:
    """(stab, irred) of the rows of one stratum task, a scalar for a constant
    column: P < 0 rows have stab 1, negird rows are irreducible, and negrd
    rows and the P > 0 rows with x1 = 0 (v divides them) are reducible."""
    kind, a = task[:2]
    if kind != "pos":
        return 1, kind == "negird"
    return _pos_stab_column(rows), a > 0 and _pos_irreducible_mask(rows)


def _task_bound(task) -> int:
    """At least the number of rows the stratum task emits, counted from its
    exact windows with no row expanded: a pos or negird task emits some of
    the rows of its windows (the A = C rows go through _canonical_pos, and
    the rows with a rational root are cut), a negrd task all of them."""
    kind, arg, limit, step = task
    if kind == "pos":
        windows = _pos_windows(arg, limit, step)[4]
    elif kind == "negird":
        windows = _neg_ird_pair_windows(arg, limit, step)[2]
    else:
        windows = [_neg_rd_windows(*arg, limit, step)[2:]]
    return int(_pair_counts(windows).sum())


# The key columns in which each task kind's block increases: negrd (p, q, r, 0) by (r, q, p)
_BLOCK_KEYS = {"pos": slice(None), "negird": slice(None), "negrd": slice(2, None, -1)}


def _lex_order(cols) -> np.ndarray:
    """Indices that sort the rows of the int64 key columns cols (first key
    first) lexicographically, stably.  Each column, shifted to start at 0,
    spans a known number of bits, and adjacent columns share one uint64
    word while their bits fit in 64, so a word compares as its columns do
    and np.lexsort sorts a few words, not every column: exact at every
    range, a column of 64 bits taking a word of its own."""
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
# the column code (discriminant, hessian, rows @ mat.T) stays below
# 2^63.  By size, in units of Y^2:
#   - discriminant of a reducible row (p, q, r, 0): r = 1 allows p up to
#     (Y + 1) // 4 (r >= 2 allows less), and the partial product 27*a*a is
#     27 p^2 <= 27 ((Y + 1) // 4)^2, about 1.69 Y^2.  This one binds;
#   - small-matrix images of a P > 0 row (0, b, c, d): b = 1 allows
#     |c| <= 1 and |d| <= Y/4 + 1, so s = |b| + |c| + |d| <= Y/4 + 3.  Image
#     coefficients are at most s (x1, x4) and 3 s (x2, x3), so a Hessian
#     product of an image is at most 9 s^2, about 0.56 Y^2.  The stratum
#     takes images (and their Hessians) of its A = C rows only, which have
#     |d| <= b / 3 at a = 0, and the stabilizer column takes images without
#     Hessians, so this bound is not reached;
#   - in _neg_rd_stratum, q^2 r^2 < 4 r^4 <= 4 Y^2 / 9 (q < 2r, r^2 <= Y/3),
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
# 2 sqrt(A)) / 3, and, since one call has one width, up to the task's widest
# bracket, 4 Y^(1/4) / 3 + 1, past a row's own piece (values that mid < hi
# masks).  With A <= sqrt(Y), |x1 x3| <= (x2^2 + A) / 3 and, by |B| <= A,
# |x1^2 x4| <= |x1| (|x2 x3| + A) / 9, so its Horner partials are of order
# Y^(3/4); over every point read at Y = 1e5, 1e6 and 1e7 they were at most
# 0.13 Y^(3/4) (test_pos_root_test_at_int64_edge reads rows at MAX_LIMIT).
# The d-windows (forms._d_windows) need (isqrt(n) + 1)^2 < 2^63 for
# n = B2^2 + 4 alpha (|C2| + Y), which grows like Y^(3/2).  Over the strata's
# (b, c) windows at Y = MAX_LIMIT it is at most 2.45e18 (0.27 * 2^63, P < 0
# at a = 192) and 1.55e16 for P > 0 (test_strata_windows_exact_at_max_limit).
MAX_LIMIT = 4 * isqrt((2 ** 63 - 1) // 27) + 2  # 2_337_884_074

# (limit, sign, sublattice) -> every orbit of that sign of P (sign None: both
# signs) in that sublattice
_MASTER_CACHE: dict = {}


def _covers(key, limit: int, sign, sublattice: int) -> bool:
    """Whether the master of a cache key holds every orbit of the selection
    (limit, sign, sublattice): its limit is at least limit, its sign is None
    or sign, and its sublattice is L1 or the one asked for."""
    return key[0] >= limit and key[1] in (None, sign) and key[2] in (1, sublattice)


def _check_selection(limit: int, sign, sublattice: int) -> int:
    """limit as an int, after the checks of a selection: ValueError for
    limit < 1 or past MAX_LIMIT, the bound of exact int64 arithmetic, a sign
    other than None, '+' or '-', or a sublattice other than 1 or 2;
    TypeError for a float limit (operator.index)."""
    limit = index(limit)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > MAX_LIMIT:
        raise ValueError(f"limit {limit} exceeds the int64 safety bound {MAX_LIMIT}")
    if sign is not None:
        _sign_positive(sign)
    if sublattice not in _STEPS:
        raise ValueError(f"sublattice must be 1 or 2, got {sublattice!r}")
    return limit


def _selection_tasks(limit: int, sign, sublattice: int) -> list:
    """The stratum tasks of the sign of P (pos: P > 0; None: all), in row order."""
    tasks = _stratum_tasks(limit, _STEPS[sublattice])
    return [t for t in tasks if sign in (None, "+" if t[0] == "pos" else "-")]


def _task_orbits(tasks: list, limit: int, sign, sublattice: int):
    """One MasterClasses chunk per stratum task, its orbits, in turn.  Each
    stratum emits one row per orbit, in order; verify rather than assume:
    a block strictly increases in its own key iff each task's rows do and
    each task's first row follows the last row of its kind so far.  A
    chunk's P is checked (nonzero, within limit) once its consumer has taken
    it, so that master_classes' bound guard comes first."""
    last = {}  # kind -> the key of the last row of the kind so far
    for task in tasks:
        kind, rows = _run_task(task)
        keys = rows[:, _BLOCK_KEYS[kind]]
        _check_increasing(keys.T, kind)
        if len(rows):
            _check_increasing(np.concatenate([last.get(kind, keys[:0]), keys[:1]]).T, kind)
            last[kind] = keys[-1:].copy()  # not a view: the rows go with the chunk
        stab, irred = _task_columns(task, rows)
        disc = discriminant(rows.T)
        res = _residue_row(rows.T).astype(np.uint16)
        stab = np.broadcast_to(np.asarray(stab, dtype=np.int8), len(rows))
        irred = np.broadcast_to(irred, len(rows))
        yield MasterClasses(limit, rows, disc, stab, irred, res, sign, sublattice)
        if not ((disc != 0).all() and (np.abs(disc) <= limit).all()):
            raise AssertionError("enumeration produced out-of-range discriminants")


def master_classes(limit: int, sign: str | None = None, *, sublattice: int = 1) -> MasterClasses:
    """All orbits with 1 <= |P| <= limit, in the full integer lattice L1 or,
    with sublattice=2, in L2 = {3 | x2, x3}, which holds the even lattices.

    With sign '+' or '-', only the orbits of that sign of P.  The rows are
    in master row order, and only the stratum tasks of that sign are run
    (_task_orbits).  An L2 master is built by the same strata with the
    step 3 (_STEPS): it holds exactly the L1 master's rows in L2, in order,
    because L2 is SL2(Z)-invariant, so every orbit in L2 has its
    representative there.  A cached master serves every selection it
    covers: its limit is at least limit, its sign is None or sign, and its
    sublattice is L1 or the one asked for (an L1 master serves L2; an L2
    master never serves L1).  Every build is cached, and evicts the cached
    masters it covers.  _check_selection runs first, cached master or not.
    """
    limit = _check_selection(limit, sign, sublattice)
    keys = [k for k in _MASTER_CACHE if _covers(k, limit, sign, sublattice)]
    if keys:  # the smallest covering master
        master = _MASTER_CACHE[min(keys, key=lambda k: (k[0], k[1] is None, k[2] == 1))]
        if (master.limit, master.sign, master.sublattice) == (limit, sign, sublattice):
            return master
        keep = np.abs(master.disc) <= limit
        if sign != master.sign:
            keep &= (master.disc > 0) == (sign == "+")
        if sublattice != master.sublattice:
            keep &= _membership(master.res, sublattice)
        cut = [getattr(master, name)[keep] for name in _COLUMNS]
        return MasterClasses(limit, *cut, sign, sublattice)
    tasks = _selection_tasks(limit, sign, sublattice)
    # Two passes: the row bounds size each column once, and each task then
    # writes its chunk into the next slice.  The tail the bounds over-count
    # is never written, so its pages are never resident.
    bounds = [_task_bound(t) for t in tasks]
    size = sum(bounds)
    columns = (  # in the order of _COLUMNS
        np.empty((size, 4), dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int8),
        np.empty(size, dtype=bool),
        np.empty(size, dtype=np.uint16),
    )
    end = 0
    # the stream first: zip then resumes it past its last chunk, whose P check runs
    for chunk, task, bound in zip(_task_orbits(tasks, limit, sign, sublattice), tasks, bounds):
        if len(chunk) > bound:
            raise AssertionError(
                f"{task[0]} task {task[1]} emitted {len(chunk)} rows, past its bound {bound}"
            )
        start, end = end, end + len(chunk)
        for name, column in zip(_COLUMNS, columns):
            column[start:end] = getattr(chunk, name)

    master = MasterClasses(limit, *(column[:end] for column in columns), sign, sublattice)
    key = (limit, sign, sublattice)
    for old in [k for k in _MASTER_CACHE if _covers(key, *k)]:
        del _MASTER_CACHE[old]
    _MASTER_CACHE[key] = master
    return master


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


def _class_table(orbits: MasterClasses, lattice: int, sign: str, max_index: int) -> ClassTable:
    """The ClassTable of the orbits of one (lattice, sign) pair with
    1 <= index <= max_index (MasterClasses.select), sorted."""
    idx, n = orbits.select(lattice, sign, max_index)
    reps = orbits.reps[idx]
    order = _lex_order([n, *reps.T])
    idx = idx[order]
    return ClassTable(lattice, sign, n[order], reps[order], orbits.stab[idx], orbits.irred[idx])


def enumerate_classes(lattice: int, sign: str, max_index: int) -> ClassTable:
    """The ClassTable of the orbits in the lattice with 1 <= index <= max_index.

    The index is |P| for odd lattices and |Q| = |P|/27 for even lattices.
    TypeError for a float max_index.
    """
    max_index = index(max_index)
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    _sign_positive(sign)
    scale, sublattice = index_scale(lattice), sublattice_of(lattice)
    master = master_classes(max_index * scale, sign, sublattice=sublattice)
    return _class_table(master, lattice, sign, max_index)


# ---------------------------------------------------------------------------
# brute-force oracle: box scan + BFS grouping
# ---------------------------------------------------------------------------

_ORACLE_CACHE: dict = {}
_SCAN_CACHE: dict = {}


def _scan_window_bound(box: int, p_limit: int) -> int:
    """The largest B2^2 + 4 alpha (C2 + p_limit) of _d_windows over the box,
    reached at a = b = -c = box: there |B2| = 22 box^3 and C2 = 5 box^4."""
    return 1024 * box ** 6 + 108 * box ** 2 * p_limit


# The largest box at which the exact windows stay in int64 for every
# p_limit <= MAX_LIMIT: _isqrt64 needs (isqrt(n) + 1)^2 < 2^63 for the
# largest n, _scan_window_bound(box, MAX_LIMIT).  Every other intermediate
# (B2 +- s, the discriminant of a box row) is of order box^4 or smaller.
MAX_BOX = _icbrt(isqrt(2 ** 63 // 1024))  # from the box^6 term alone
while (isqrt(_scan_window_bound(MAX_BOX, MAX_LIMIT)) + 1) ** 2 >= 2 ** 63:
    MAX_BOX -= 1  # 455


def stability_box(box: int) -> int:
    """The box of brute_force_classes' stability re-run."""
    return (3 * box + 1) // 2


def _hessian_floor(a: int, p_limit: int) -> int:
    """h0 = max{h >= 0 : 4 h^3 <= 27 a^2 p_limit}, for a >= 1."""
    return _icbrt(27 * a * a * p_limit // 4)


# f(x, -y): (a, b, c, d) -> (a, -b, c, -d), as a column sign pattern
_MIRROR = np.array([1, -1, 1, -1], dtype=np.int64)


def _box_survivors(box: int, p_limit: int, sublattice: int) -> np.ndarray:
    """Forms in [-box, box]^4 with 1 <= |P| <= p_limit, in lexicographic
    order, each once, in the sublattice L1 or L2 (b, c in 3Z: _STEPS).

    The box, P and L2 are invariant under the signed permutations of GL2(Z):
    f(x, -y) = (a, -b, c, -d), f(y, x) = (d, c, b, a) and f(-x, -y) = -f
    (GL2 acts on P by det^6 = 1).  They map the domain a >= 0, b >= 0,
    |c| <= b (b >= 1 at a = 0) onto every form with P != 0: negation makes
    a >= 0 and f(x, -y) then b >= 0; if still |c| > b, f(y, x) and then
    f(-x, y) = (-a, b, -c, d) and f(x, -y) as needed give a' >= 0 and
    b' = |c| > b = |c'|.  (At a = b = 0 the domain forces c = 0, hence
    P = 0.)  Only that domain is scanned; the other rows are its images
    under the three maps, which generate the group (order 8, with
    -f = (f(y, x) o f(x, -y))^2), and a lexicographic sort with an
    adjacent-row diff drops the repeated images of the rows on the domain's
    edges (a = 0, b = 0, |c| = b).

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
        rows = _window_rows(a, ab, ac, windows)
        p = discriminant(rows.T)
        chunks.append(rows[(p != 0) & (np.abs(p) <= p_limit)])
    rows = _ranges_to_rows(chunks)
    rows = np.concatenate([rows, rows * _MIRROR])
    rows = np.concatenate([rows, rows[:, ::-1]])
    rows = np.concatenate([rows, -rows])
    rows = rows[_lex_order(rows.T)]
    fresh = (rows[1:] != rows[:-1]).any(axis=1)
    return np.concatenate([rows[:1], rows[1:][fresh]])


def _group_box_orbits(
    box: int, p_limit: int, cap: int, sublattice: int, scan_box: int
) -> MasterClasses:
    """Group the box survivors into orbits: their lexmin in-box reps, in
    lexicographic order, and the columns of each.  The survivors are
    filtered from the scan at scan_box >= box, which is made once per
    (scan_box, p_limit, sublattice).

    One orbit_bfs call groups them.  The survivors are lex-sorted and
    closed under negation, and the rows whose first nonzero coefficient
    (x1, else x2; x1 = x2 = 0 gives P = 0) is negative sort first, so the
    first half holds one form of each +-pair: the seeds.  A closure is
    closed under negation, so its lexmin in-box member is a seed, the least
    one: the representative, the seed that owns itself.  Every in-box
    survivor is a seed or a seed's negation, and a closure's in-box members
    are all survivors (they share P, and L2 is invariant), so no form
    reached past the seeds may lie in the box.
    """
    key = (box, p_limit, cap, sublattice)
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    scan_key = (scan_box, p_limit, sublattice)
    if scan_key not in _SCAN_CACHE:
        _SCAN_CACHE[scan_key] = _box_survivors(*scan_key)
    survivors = _SCAN_CACHE[scan_key]
    seeds = survivors[: len(survivors) // 2]
    inside = ((seeds >= -box) & (seeds <= box)).all(axis=1)
    if not inside.all():
        seeds = seeds[inside]
    owner, reached = orbit_bfs(seeds, cap)
    if ((reached >= -box) & (reached <= box)).all(axis=1).any():
        raise AssertionError("a closure's in-box member is not a box survivor")
    rows = seeds[owner == np.arange(len(seeds))]
    reps = list(map(tuple, rows.tolist()))
    cols = rows.T
    orbits = MasterClasses(
        p_limit,
        rows,
        discriminant(cols),
        np.array([stabilizer_order(f) for f in reps], dtype=np.int8),
        np.array([is_irreducible(f) for f in reps], dtype=bool),
        _residue_row(cols).astype(np.uint16),
        sublattice=sublattice,
    )
    _ORACLE_CACHE[key] = orbits
    return orbits


def brute_force_classes(
    lattice: int, sign: str, max_index: int, box: int, check_stability: bool = False
) -> ClassTable:
    """Independent oracle: box enumeration + BFS orbit grouping, returned as
    the ClassTable of the pair, in the order of enumerate_classes.

    The survivors of the scan are grouped by one orbit_bfs search from all
    of them (_group_box_orbits), and each orbit is named by its lexmin
    in-box form.  Correct only when every orbit with index <= max_index has
    a member in [-box, box]^4 and box members are BFS-connected within the
    cap 4 * box.
    With check_stability=True the run is repeated at stability_box(box) =
    (3 * box + 1) // 2 with the cap 6 * box, and a warning is raised if the
    class multiset changes; one scan at that box serves both runs.
    ValueError for max_index < 1 or box < 1.  The box scanned may not exceed
    MAX_BOX, nor the discriminant bound MAX_LIMIT, the bounds of exact int64
    arithmetic.  TypeError for a float max_index or box.
    """
    max_index, box = index(max_index), index(box)
    _sign_positive(sign)
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if box < 1:
        raise ValueError("box must be >= 1")
    p_limit = max_index * index_scale(lattice)
    scan_box = stability_box(box) if check_stability else box
    if scan_box > MAX_BOX:
        raise ValueError(f"box {scan_box} exceeds the int64 safety bound {MAX_BOX}")
    if p_limit > MAX_LIMIT:
        raise ValueError(f"limit {p_limit} exceeds the int64 safety bound {MAX_LIMIT}")
    # the even lattices lie in L2, where 27 divides P, so |P| // 27 is exact
    sublattice = sublattice_of(lattice)

    def grouped(at_box: int, cap: int) -> ClassTable:
        orbits = _group_box_orbits(at_box, p_limit, cap, sublattice, scan_box)
        return _class_table(orbits, lattice, sign, max_index)

    table = grouped(box, 4 * box)
    if check_stability:
        bigger = grouped(scan_box, 6 * box)
        if table.class_multiset() != bigger.class_multiset():
            warnings.warn(
                f"brute_force_classes unstable under box growth "
                f"({box} -> {scan_box}) for (L{lattice}, {sign}); "
                f"results may be incomplete",
                stacklevel=2,
            )
    return table
