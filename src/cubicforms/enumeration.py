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
bound on P is forms._d_windows (an int64 isqrt), and |B| <= A, C >= A and
|s1| < 1 are linear in d.  Only s2 > 1 and the rational-root test of the
P < 0 irreducible stratum are cuts on the rows.  Every stratum emits its
rows in order (the P > 0 tasks by descending a, since x1 = -a), so no sort
is needed: one pass over neighbouring rows checks that each block strictly
increases in its own key, which proves it has no duplicate rows.  Integer
arithmetic is int64, exact up to limit = MAX_LIMIT (about 2.3e9).

The brute-force oracle shares none of the strata: it scans the box
[-box, box]^4 with the same d-windows of forms (exact up to box = MAX_BOX)
and groups the survivors into orbits by BFS under u(+-1), w.  Before the
windows, an exact Hessian cut drops the (a, b, c) with a >= 1 and
3ac > b^2 + h0: by 27 a^2 P = 4 H^3 - G^2 (H = b^2 - 3ac), P >= -p_limit
needs 4 (-H)^3 <= 27 a^2 p_limit.  Each grouping computes the columns of its
representatives (discriminant, lattice membership, stabilizer order,
irreducibility) once, and every (lattice, sign) selects from them.

The master rows and an oracle grouping are both MasterClasses: orbit
columns (representative, discriminant, stabilizer order, irreducibility,
lattice membership).  enumerate_classes and brute_force_classes select one
(lattice, sign) pair from them the same way and return it as a ClassTable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .forms import (
    EVEN_LATTICES,
    _ceil_div,
    _d_windows,
    _divisors,
    discriminant,
    index_scale,
    is_irreducible,
    lattice_membership,
    value_at,
)
from .reduction import (
    _canonical_pos,
    _pos_stab_column,
    _s2_above_one,
    orbit_bfs,
    stabilizer_order,
)


# ---------------------------------------------------------------------------
# shared integer helpers
# ---------------------------------------------------------------------------


def _ranges_to_rows(parts: list) -> np.ndarray:
    good = [p for p in parts if len(p)]
    if not good:
        return np.empty((0, 4), dtype=np.int64)
    return np.concatenate(good, axis=0)


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


def _bc_pairs(bs: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray) -> tuple:
    """The (b, c) columns of the windows c_lo[i] <= c <= c_hi[i] at b = bs[i],
    in lexicographic order when bs is increasing."""
    idx, c = _expand_windows(c_lo, c_hi)
    return bs[idx], c


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


def _pos_windows(a: int, limit: int) -> tuple:
    """(b, c, A, k, windows): the (b, c) pairs of _pos_scan, their Hessian
    A = b^2 - 3ac and k = c^2 - A, and the d-windows of each pair.  At
    fixed (b, c) each condition is exact in d: 1 <= P <= limit gives the
    windows of _d_windows, and |B| <= A and C >= A, both linear in d, clip
    them."""
    b, c = _bc_pairs(*_pos_bc_windows(a, limit))
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


def _pos_stratum(a: int, limit: int) -> np.ndarray:
    """The canonical representatives whose negation has leading coefficient
    a, in lexicographic order; over all a >= 0, one row per orbit with
    1 <= P <= limit.

    A scan row f is kept, and -f emitted, iff -f is canonical
    (reduction._canonical_pos).  Where A < C that holds iff B != -A, so
    the strict clips B > -A and C > A give the rows kept outright.  Only
    the A = C rows go through _canonical_pos: one d = k / (3b) per (b, c),
    the end of the C clip (every d of the pair c = -3a at b = 0).  The
    scan is in lexicographic order, so the negated rows are reversed."""
    b, c, A, k, windows = _pos_windows(a, limit)
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
    pieces = np.split(rows, at[keep])
    merged = pieces[:1]
    for row, piece in zip(edge[keep], pieces[1:]):
        merged += [row[None], piece]
    rows = np.concatenate([piece[::-1] for piece in reversed(merged)])
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
    The float cube root is rounded up by a margin, so it may cost speed,
    never rows.
    """
    if 27 * a ** 4 > 16 * limit:  # s2 <= 1: no reduced form
        return (np.empty(0, dtype=np.int64),) * 3
    bmax = 3 * a // 2 + isqrt(isqrt(limit // 3)) + 1
    bs = np.arange(-bmax, bmax + 1, dtype=np.int64)
    s2a_max = int((16 * limit / (27 * a)) ** (1 / 3)) + 2
    return bs, 1 - np.abs(bs), s2a_max + np.abs(bs) + a


def _depressed(rows: np.ndarray):
    """Floats (p, q, shift): the roots of the dehomogenized cubic are
    y - shift for the roots y of the depressed cubic y^3 + p y + q."""
    a, b, c, d = rows.T.astype(np.float64)
    p = c / a - b * b / (3 * a * a)
    q = 2 * b ** 3 / (27 * a ** 3) - b * c / (3 * a * a) + d / a
    return p, q, b / (3 * a)


def _real_root(rows: np.ndarray) -> np.ndarray:
    """Real root of the dehomogenized cubic (exactly one; P < 0), by Cardano."""
    p, q, shift = _depressed(rows)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    sq = np.sqrt(np.maximum(disc, 0.0))
    y = np.cbrt(-q / 2 + sq) + np.cbrt(-q / 2 - sq)
    return y - shift


def _root_near_mask(rows: np.ndarray, root: np.ndarray, a: int) -> np.ndarray:
    """Rows with a rational root p/q next to the float root: f(p, q) == 0 for
    some q | a and p = rint(root * q) + {-1, 0, 1}, tested exactly.  a is the
    common |leading coefficient|, so q | a covers every rational root."""
    cols = rows.T
    red = np.zeros(len(rows), dtype=bool)
    for q in _divisors(a):
        p0 = np.rint(root * q).astype(np.int64)
        for off in (-1, 0, 1):
            red |= value_at(cols, p0 + off, q) == 0
    return red


def _neg_ird_stratum(a: int, limit: int) -> np.ndarray:
    """The irreducible P < 0 representatives with leading coefficient a >= 1
    and -limit <= P <= -1, in lexicographic order: the exact d-windows of P,
    clipped to |s1| < 1, then the exact cuts s2 > 1 and no rational root."""
    b, c = _bc_pairs(*_neg_ird_bc_windows(a, limit))
    # |s1| < 1, the sign tests of _in_open_domain at (-b -+ a)/a, in d:
    # -(a - b)(a - b + c) < a d < (a + b)(a + b + c)
    windows = _clip(
        _d_windows(a, b, c, -limit, -1),
        (-(a - b) * (a - b + c)) // a + 1,
        _ceil_div((a + b) * (a + b + c), a) - 1,
    )
    rows = _window_rows(a, b, c, windows)
    rows = rows[_s2_above_one(rows.T)]
    return rows[~_root_near_mask(rows, _real_root(rows), a)]


# ---------------------------------------------------------------------------
# negative-discriminant, reducible stratum (parabolic presentation)
# ---------------------------------------------------------------------------


def _neg_rd_stratum(r_lo: int, r_hi: int, limit: int) -> np.ndarray:
    """Rows (p, q, r, 0), r in [r_lo, r_hi], 0 <= q < 2r, 1 <= -P <= limit."""
    rows = []
    for r in range(r_lo, r_hi + 1):
        dmax = limit // (r * r)
        if dmax < 3:
            continue
        qs = np.arange(0, 2 * r, dtype=np.int64)
        lo = _ceil_div(qs * qs + 1, 4 * r)
        hi = (qs * qs * r * r + limit) // (4 * r ** 3)
        idx, ps = _expand_windows(lo, hi)
        if len(ps) == 0:
            continue
        q_col = qs[idx]
        rows.append(
            np.stack(
                [
                    ps,
                    q_col,
                    np.full(len(ps), r, dtype=np.int64),
                    np.zeros(len(ps), dtype=np.int64),
                ],
                axis=1,
            )
        )
    return _ranges_to_rows(rows)


# ---------------------------------------------------------------------------
# master enumeration (all orbits with 1 <= |P| <= Y)
# ---------------------------------------------------------------------------


@dataclass
class MasterClasses:
    """One row per orbit with 1 <= |P(rep)| <= limit, as parallel numpy arrays:
    the master enumeration, or one oracle grouping (its in-box orbits)."""

    limit: int
    reps: np.ndarray  # (N, 4) int64, representatives, one per orbit
    disc: np.ndarray  # (N,) int64, signed P
    stab: np.ndarray  # (N,) int64, 1 or 3
    irred: np.ndarray  # (N,) bool
    member: np.ndarray  # (N, 10) bool, membership in L1..L10

    def __len__(self):
        return len(self.disc)


def _pos_irreducible_mask(rows: np.ndarray, a: int) -> np.ndarray:
    """Irreducibility of P > 0 rows whose leading coefficient is a or -a,
    a >= 1 (three real roots, trig Cardano); a row with x4 = 0 has the
    root (0 : 1)."""
    irred = rows[:, 3] != 0
    sel = np.flatnonzero(irred)
    sub = rows[sel]
    p, q, shift = _depressed(sub)
    # P > 0 => three distinct real roots => (q/2)^2 + (p/3)^3 < 0, p < 0
    m = np.sqrt(np.maximum(-p / 3.0, 1e-300))
    arg = np.clip(3.0 * q / (2.0 * p * m), -1.0, 1.0)
    phi = np.arccos(arg)
    red = np.zeros(len(sub), dtype=bool)
    for k in range(3):
        t = 2.0 * m * np.cos((phi - 2.0 * np.pi * k) / 3.0) - shift
        red |= _root_near_mask(sub, t, a)
    irred[sel[red]] = False
    return irred


def _stratum_tasks(limit: int) -> list:
    amax_pos = int((4.0 / 27.0) ** 0.5 * limit ** 0.25) + 2
    amax_neg = int((16.0 * limit / 27.0) ** 0.25) + 2
    rmax = isqrt(limit // 3) if limit >= 3 else 0
    tasks = [("pos", a, limit) for a in range(0, amax_pos + 1)]
    tasks += [("negird", a, limit) for a in range(1, amax_neg + 1)]
    step = max(1, rmax // 16)
    r = 1
    while r <= rmax:
        tasks.append(("negrd", (r, min(r + step - 1, rmax)), limit))
        r += step
    return tasks


def _run_task(task) -> tuple:
    kind, arg, limit = task
    if kind == "pos":
        return kind, _pos_stratum(arg, limit)
    if kind == "negird":
        return kind, _neg_ird_stratum(arg, limit)
    r_lo, r_hi = arg
    return kind, _neg_rd_stratum(r_lo, r_hi, limit)


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Indices that sort the rows lexicographically (first column first)."""
    return np.lexsort(rows.T[::-1])


def _check_increasing(cols, stratum: str) -> None:
    """AssertionError unless the rows with these key columns (first key
    first, at most 7) strictly increase in lexicographic order: an O(n)
    proof that no two rows are equal.  Each pair of neighbours x, y scores
    the sum of 2^(k - 1 - j) sign(y_j - x_j) over its k keys, which is
    positive iff y follows x: the first differing key outweighs the rest."""
    score = np.zeros(max(len(cols[0]) - 1, 0), dtype=np.int8)
    for col in cols:
        x, y = col[:-1], col[1:]
        score *= 2
        score += (y > x).view(np.int8)
        score -= (y < x).view(np.int8)
    if not (score > 0).all():
        raise AssertionError(
            f"duplicate representatives or rows out of order in {stratum} stratum"
        )


# The largest limit Y at which every int64 intermediate of the strata and of
# the column code (discriminant, value_at, hessian, rows @ mat.T) stays below
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
# The d-windows (forms._d_windows) need (isqrt(n) + 1)^2 < 2^63 for
# n = B2^2 + 4 alpha (|C2| + Y), which grows like Y^(3/2).  Over the strata's
# (b, c) windows at Y = MAX_LIMIT it is at most 2.45e18 (0.27 * 2^63, P < 0
# at a = 192) and 1.6e16 for P > 0 (test_strata_windows_exact_at_max_limit).
MAX_LIMIT = 4 * isqrt((2 ** 63 - 1) // 27) + 2  # 2_337_884_074

_MASTER_CACHE: dict = {}


def master_classes(limit: int, workers: int = 1) -> MasterClasses:
    """All orbits with 1 <= |P| <= limit, across the full integer lattice L1.

    limit may not exceed MAX_LIMIT, the bound of exact int64 arithmetic.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > MAX_LIMIT:
        raise ValueError(f"limit {limit} exceeds the int64 safety bound {MAX_LIMIT}")
    for cached_limit, master in sorted(_MASTER_CACHE.items()):
        if cached_limit >= limit:
            if cached_limit == limit:
                return master
            keep = np.abs(master.disc) <= limit
            return MasterClasses(
                limit,
                master.reps[keep],
                master.disc[keep],
                master.stab[keep],
                master.irred[keep],
                master.member[keep],
            )
    tasks = _stratum_tasks(limit)
    if workers > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(workers, len(tasks))) as pool:
            results = pool.map(_run_task, tasks)
    else:
        results = [_run_task(t) for t in tasks]

    blocks = {"pos": [], "negird": [], "negrd": []}
    for kind, rows in results:
        blocks[kind].append(rows)
    # a P > 0 task emits x1 = -a, so its blocks run in order by descending a
    blocks["pos"].reverse()
    pos_a = [a for kind, a, _ in reversed(tasks) if kind == "pos"]
    pos_sizes = [len(rows) for rows in blocks["pos"]]
    n_pos = sum(pos_sizes)
    n_neg = n_pos + sum(len(rows) for rows in blocks["negird"])
    reps = _ranges_to_rows(blocks["pos"] + blocks["negird"] + blocks["negrd"])
    del results, blocks  # frees the per-task arrays; reps is the one copy
    pos_rows = reps[:n_pos]

    # Each stratum emits one row per orbit, in order; verify rather than
    # assume, in each block's own key: the rows (p, q, r, 0) by (r, q, p).
    _check_increasing(pos_rows.T, "pos")
    _check_increasing(reps[n_pos:n_neg].T, "neg-irreducible")
    _check_increasing(reps[n_neg:, 2::-1].T, "neg-reducible")

    disc = discriminant(reps.T)
    stab = np.ones(len(reps), dtype=np.int64)
    stab[:n_pos] = _pos_stab_column(pos_rows)
    irred = np.zeros(len(reps), dtype=bool)
    irred[n_pos:n_neg] = True
    # the rows of the a = 0 task (x1 = 0, last) are reducible: v divides them
    end = 0
    for a, size in zip(pos_a, pos_sizes):
        start, end = end, end + size
        if a:
            irred[start:end] = _pos_irreducible_mask(reps[start:end], a)

    if not ((disc != 0).all() and (np.abs(disc) <= limit).all()):
        raise AssertionError("enumeration produced out-of-range discriminants")

    master = MasterClasses(limit, reps, disc, stab, irred, lattice_membership(reps.T))
    _MASTER_CACHE[limit] = master
    for k in [k for k in _MASTER_CACHE if k < limit]:
        del _MASTER_CACHE[k]
    return master


# ---------------------------------------------------------------------------
# one (lattice, sign) pair as columns
# ---------------------------------------------------------------------------


def _index_columns(master: MasterClasses, scale: int, max_index: int) -> tuple:
    """(n, by_sign): the index n = |P| // scale of every row and, for each
    sign, the mask of the rows of that sign with 1 <= n <= max_index."""
    n = np.abs(master.disc) // scale
    in_range = (n >= 1) & (n <= max_index)
    return n, {"+": in_range & (master.disc > 0), "-": in_range & (master.disc < 0)}


def _sign_positive(sign: str) -> bool:
    """True for '+', False for '-'; ValueError for any other sign."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return sign == "+"


def _signed_selection(master: MasterClasses, lattice: int, sign: str, columns: tuple):
    """(mask, n) for one (lattice, sign) pair, given the _index_columns of
    the lattice's index scale."""
    _sign_positive(sign)
    n, by_sign = columns
    return by_sign[sign] & master.member[:, lattice - 1], n


@dataclass
class ClassTable:
    """The orbits of one (lattice, sign) pair as parallel numpy columns,
    sorted by (index, representative) in lexicographic order."""

    lattice: int
    sign: str  # '+' or '-'
    n: np.ndarray  # (N,) int64, index
    reps: np.ndarray  # (N, 4) int64, canonical representatives
    stab: np.ndarray  # (N,) int64, 1 or 3
    irred: np.ndarray  # (N,) bool

    def __len__(self):
        return len(self.n)

    def rows(self, block: slice = slice(None)):
        """(n, rep, stab, irred) for each row of the block, as Python ints,
        lists of ints and bools."""
        return zip(
            self.n[block].tolist(),
            self.reps[block].tolist(),
            self.stab[block].tolist(),
            self.irred[block].tolist(),
        )

    def class_multiset(self) -> list:
        """The sorted (n, stab, irred) triples of the rows, as Python ints and
        bools: what the enumeration and the oracle must agree on."""
        return sorted(zip(self.n.tolist(), self.stab.tolist(), self.irred.tolist()))


def _class_table(orbits: MasterClasses, lattice: int, sign: str, max_index: int) -> ClassTable:
    """The ClassTable of the orbits of one (lattice, sign) pair with
    1 <= index <= max_index, selected from orbit columns."""
    columns = _index_columns(orbits, index_scale(lattice), max_index)
    mask, n = _signed_selection(orbits, lattice, sign, columns)
    idx = np.flatnonzero(mask)
    idx = idx[_lex_order(np.column_stack((n[idx], orbits.reps[idx])))]
    return ClassTable(
        lattice, sign, n[idx], orbits.reps[idx], orbits.stab[idx], orbits.irred[idx]
    )


def enumerate_classes(
    lattice: int,
    sign: str,
    max_index: int,
    workers: int = 1,
) -> ClassTable:
    """The ClassTable of the orbits in the lattice with 1 <= index <= max_index.

    The index is |P| for odd lattices and |Q| = |P|/27 for even lattices.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    master = master_classes(max_index * index_scale(lattice), workers=workers)
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
MAX_BOX = int((2 ** 63 / 1024) ** (1 / 6))  # from the box^6 term alone
while (isqrt(_scan_window_bound(MAX_BOX, MAX_LIMIT)) + 1) ** 2 >= 2 ** 63:
    MAX_BOX -= 1  # 455


def stability_box(box: int) -> int:
    """The box of brute_force_classes' stability re-run."""
    return (3 * box + 1) // 2


def _hessian_floor(a: int, p_limit: int) -> int:
    """h0 = max{h >= 0 : 4 h^3 <= 27 a^2 p_limit}, for a >= 1.  The float
    cube root of n / 4 < 2^53 (n = 27 a^2 p_limit, at most about 1.3e16 for
    a <= MAX_BOX and p_limit <= MAX_LIMIT) is within one of the integer
    root, and one exact integer step each way fixes it, as in _isqrt64."""
    n = 27 * a * a * p_limit
    h = int((n / 4) ** (1 / 3))
    h -= 4 * h ** 3 > n
    h += 4 * (h + 1) ** 3 <= n
    return h


def _box_survivors(box: int, p_limit: int, family: int) -> np.ndarray:
    """Forms in [-box, box]^4 with 1 <= |P| <= p_limit, each once; family 2
    keeps L2 only (b, c in 3Z).

    Only a >= 1, and a = 0 with b >= 1, are scanned; negation maps them onto
    the rest, since P(-f) = P(f).  For a >= 1, 27 a^2 P = 4 H^3 - G^2 with
    H = b^2 - 3ac (the Hessian's A) and G = 2b^3 - 9abc + 27a^2 d, so
    P >= -p_limit needs H >= -h0 (_hessian_floor): the (b, c) pairs with
    3ac > b^2 + h0 are dropped before any d.  For each remaining (a, b, c),
    |P| <= p_limit confines d to the exact integer windows of _d_windows,
    and the exact test p != 0, |p| <= p_limit runs on every candidate.
    """
    side = np.arange(-box, box + 1, dtype=np.int64)
    bc_side = side[side % 3 == 0] if family == 2 else side
    b, c = (g.ravel() for g in np.meshgrid(bc_side, bc_side, indexing="ij"))
    chunks = []
    for a in range(box + 1):
        keep = b > 0 if a == 0 else 3 * a * c <= b * b + _hessian_floor(a, p_limit)
        ab, ac = b[keep], c[keep]
        windows = _clip(_d_windows(a, ab, ac, -p_limit, p_limit), -box, box)
        rows = _window_rows(a, ab, ac, windows)
        p = discriminant(rows.T)
        chunks.append(rows[(p != 0) & (np.abs(p) <= p_limit)])
    rows = _ranges_to_rows(chunks)
    return np.concatenate([rows, -rows])


def _group_box_orbits(
    box: int, p_limit: int, cap: int, family: int, scan_box: int
) -> MasterClasses:
    """Group the box survivors into orbits: their lexmin in-box reps, in
    lexicographic order, and the columns of each.  The survivors are
    filtered from the scan at scan_box >= box, which is made once per
    (scan_box, p_limit, family)."""
    key = (box, p_limit, cap, family)
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    scan_key = (scan_box, p_limit, family)
    if scan_key not in _SCAN_CACHE:
        _SCAN_CACHE[scan_key] = _box_survivors(*scan_key)
    survivors = _SCAN_CACHE[scan_key]
    survivors = survivors[(np.abs(survivors) <= box).all(axis=1)]
    # A closure's in-box members are its survivors: all share P, and L2 is
    # invariant, so the family-2 filter keeps every one of them.
    in_box = set(map(tuple, survivors.tolist()))
    todo = set(in_box)
    reps = []
    while todo:
        members = orbit_bfs(todo.pop(), cap) & in_box
        todo -= members
        reps.append(min(members))
    reps.sort()
    rows = np.array(reps, dtype=np.int64).reshape(-1, 4)
    cols = rows.T
    orbits = MasterClasses(
        p_limit,
        rows,
        discriminant(cols),
        np.array([stabilizer_order(f) for f in reps], dtype=np.int64),
        np.array([is_irreducible(f) for f in reps], dtype=bool),
        lattice_membership(cols),
    )
    _ORACLE_CACHE[key] = orbits
    return orbits


def brute_force_classes(
    lattice: int,
    sign: str,
    max_index: int,
    box: int,
    cap: int | None = None,
    check_stability: bool = False,
) -> ClassTable:
    """Independent oracle: box enumeration + BFS orbit grouping, returned as
    the ClassTable of the pair, in the order of enumerate_classes.

    Correct only when every orbit with index <= max_index has a member in
    [-box, box]^4 and box members are BFS-connected within the cap (default
    4 * box).  With check_stability=True the run is repeated at
    stability_box(box) = (3 * box + 1) // 2, with 1.5 times the cap (at
    least that box), and a warning is raised if the class multiset changes;
    one scan at that box serves both runs.  ValueError for max_index < 1,
    box < 1 or cap < box (a survivor outside the cap would be its own
    class).  The box scanned may not exceed MAX_BOX, nor the discriminant
    bound MAX_LIMIT, the bounds of exact int64 arithmetic.
    """
    _sign_positive(sign)
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if box < 1:
        raise ValueError("box must be >= 1")
    if cap is None:
        cap = 4 * box
    if cap < box:
        raise ValueError(f"cap {cap} is below the box {box}")
    p_limit = max_index * index_scale(lattice)
    scan_box = stability_box(box) if check_stability else box
    if scan_box > MAX_BOX:
        raise ValueError(f"box {scan_box} exceeds the int64 safety bound {MAX_BOX}")
    if p_limit > MAX_LIMIT:
        raise ValueError(f"limit {p_limit} exceeds the int64 safety bound {MAX_LIMIT}")
    # the even lattices lie in L2, where 27 divides P, so |P| // 27 is exact
    family = 2 if lattice in EVEN_LATTICES else 1

    def grouped(at_box: int, at_cap: int) -> ClassTable:
        orbits = _group_box_orbits(at_box, p_limit, at_cap, family, scan_box)
        return _class_table(orbits, lattice, sign, max_index)

    table = grouped(box, cap)
    if check_stability:
        bigger = grouped(scan_box, max(cap * 3 // 2, scan_box))
        if table.class_multiset() != bigger.class_multiset():
            warnings.warn(
                f"brute_force_classes unstable under box growth "
                f"({box} -> {scan_box}) for (L{lattice}, {sign}); "
                f"results may be incomplete",
                stacklevel=2,
            )
    return table
