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
  first nonzero coefficient positive); a row is kept iff it is that
  negation, and its canonical image is emitted: one row per orbit.

* P < 0, irreducible: unique representative with x1 > 0 whose complex root
  lies strictly inside the fundamental domain |Re z| <= 1/2, |z| >= 1.
  Writing the real root rho and s2 = |theta|^2, reducedness forces
  s2 <= (16|P| / (27 a^4))^(1/3), |rho + b/a| <= 1, giving finite windows
  for (a, b, c) and a short interval of valid d per triple.

* P < 0, reducible: unique presentation (p, q, r, 0) with r >= 1 and
  0 <= q < 2r; then P = -r^2 (4pr - q^2), enumerated directly.

The fast path's candidate generation over-covers with float windows and is
then cut back by exact integer tests, so float error can only cost speed,
never classes.  One lexicographic sort per stratum checks it for duplicate
rows.  Integer arithmetic is int64, exact up to limit = MAX_LIMIT (about
2.3e9).

The brute-force oracle shares none of that: it scans the box [-box, box]^4
with exact integer d-windows (an int64 isqrt per (a, b, c); exact up to
box = MAX_BOX) and groups the survivors into orbits by BFS under u(+-1), w.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .forms import (
    EVEN_LATTICES,
    CubicForm,
    _divisors,
    discriminant,
    hessian,
    index_scale,
    is_irreducible,
    lattice_member,
    lattice_membership,
    value_at,
)
from .reduction import (
    _canonical_pos,
    _in_open_domain,
    _pos_stab_column,
    orbit_bfs,
    stabilizer_order,
)


@dataclass(frozen=True)
class ClassRecord:
    """One SL2(Z)-orbit: lattice, sign of P, index n, canonical representative."""

    lattice: int
    sign: str  # '+' or '-'
    n: int
    rep: CubicForm
    stab_order: int
    irreducible: bool

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "sign": self.sign,
            "n": self.n,
            "rep": list(self.rep),
            "stab": self.stab_order,
            "irreducible": self.irreducible,
        }

    def sort_key(self):
        return (self.n, tuple(self.rep))


# ---------------------------------------------------------------------------
# shared integer helpers
# ---------------------------------------------------------------------------


def _ceil_div(x, y):
    """Ceiling division for positive y (works on ints and numpy arrays)."""
    return -((-x) // y)


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


# ---------------------------------------------------------------------------
# positive-discriminant stratum
# ---------------------------------------------------------------------------

def _pos_scan(a: int, limit: int) -> np.ndarray:
    """The weakly Hessian-reduced rows with leading coefficient a (a >= 0)
    and 1 <= P <= limit: integer windows, then exact cuts."""
    sqrt_limit = isqrt(limit)
    rows = []
    if a == 0:
        bmax = isqrt(sqrt_limit)
        for b in range(1, bmax + 1):
            A = b * b
            cs = np.arange(-b, b + 1, dtype=np.int64)
            cmax_val = (3 * limit + A * A) // (4 * A)
            lo = _ceil_div(cs * cs - cmax_val, 3 * b)
            hi = (cs * cs - A) // (3 * b)
            idx, ds = _expand_windows(lo, hi)
            if len(ds) == 0:
                continue
            c_col = cs[idx]
            rows.append(
                np.stack(
                    [
                        np.zeros(len(ds), dtype=np.int64),
                        np.full(len(ds), b, dtype=np.int64),
                        c_col,
                        ds,
                    ],
                    axis=1,
                )
            )
    else:
        bmax = isqrt(sqrt_limit) + (3 * a + 1) // 2 + 1
        for b in range(-bmax, bmax + 1):
            c_lo = _ceil_div(b * b - sqrt_limit, 3 * a)
            c_hi = (b * b - 1) // (3 * a)
            if c_hi < c_lo:
                continue
            cs = np.arange(c_lo, c_hi + 1, dtype=np.int64)
            A = b * b - 3 * a * cs
            bc = b * cs
            lo = _ceil_div(bc - A, 9 * a)
            hi = (bc + A) // (9 * a)
            idx, ds = _expand_windows(lo, hi)
            if len(ds) == 0:
                continue
            c_col = cs[idx]
            rows.append(
                np.stack(
                    [
                        np.full(len(ds), a, dtype=np.int64),
                        np.full(len(ds), b, dtype=np.int64),
                        c_col,
                        ds,
                    ],
                    axis=1,
                )
            )
    rows = _ranges_to_rows(rows)  # drops the per-b pieces before the cuts
    A, B, C = hessian(rows.T)
    disc3 = 4 * A * C - B * B  # 3 P
    return rows[(C >= A) & (disc3 >= 3) & (disc3 <= 3 * limit)]


def _pos_stratum(a: int, limit: int) -> np.ndarray:
    """The canonical representatives whose negation has leading coefficient
    a; over all a >= 0, one row per orbit with 1 <= P <= limit."""
    rows = _pos_scan(a, limit)
    canon = _canonical_pos(rows)
    return canon[(canon == -rows).all(axis=1)]


# ---------------------------------------------------------------------------
# negative-discriminant, irreducible stratum (fundamental-domain root)
# ---------------------------------------------------------------------------


def _neg_ird_windows(a: int, limit: int) -> np.ndarray:
    """Candidate rows for given leading coefficient a >= 1 (float windows)."""
    s2max = (16.0 * limit / (27.0 * a ** 4)) ** (1.0 / 3.0) + 1e-9
    if s2max < 1.0:
        return np.empty((0, 4), dtype=np.int64)
    rho_max = 0.5 + (limit / (3.0 * a ** 4)) ** 0.25
    bmax = int(1.5 * a + a * rho_max - a + 2) + 1  # |b| <= a(1 + |rho|)
    bmax = max(bmax, int(a * (1 + rho_max)) + 2)
    cmax = int(a * (rho_max + s2max)) + 2
    eps = 1e-9
    out = []
    app = out.append
    for b in range(-bmax, bmax + 1):
        ba = b / a
        mid = -ba
        i0_lo, i0_hi = mid - 1.0 - eps, mid + 1.0 + eps
        for c in range(-cmax, cmax + 1):
            ca = c / a
            # q(t) = t^2 + ba*t + ca must lie in [1, s2max] for t = rho
            rad2 = ba * ba - 4.0 * (ca - s2max)
            if rad2 <= 0:
                continue
            sq2 = rad2 ** 0.5
            r1, r2 = (-ba - sq2) / 2.0, (-ba + sq2) / 2.0
            lo, hi = max(i0_lo, r1 - eps), min(i0_hi, r2 + eps)
            if hi <= lo:
                continue
            rad1 = ba * ba - 4.0 * (ca - 1.0)
            pieces = []
            if rad1 <= 0:
                pieces.append((lo, hi))
            else:
                sq1 = rad1 ** 0.5
                g1, g2 = (-ba - sq1) / 2.0, (-ba + sq1) / 2.0
                if lo < g1:
                    pieces.append((lo, min(hi, g1 + eps)))
                if hi > g2:
                    pieces.append((max(lo, g2 - eps), hi))
            for plo, phi in pieces:
                if phi <= plo:
                    continue
                ts = [plo, phi]
                # critical points of d(t) = -(a t^3 + b t^2 + c t)
                radc = 4.0 * b * b - 12.0 * a * c
                if radc >= 0:
                    sqc = radc ** 0.5
                    for tc in ((-2.0 * b - sqc) / (6.0 * a), (-2.0 * b + sqc) / (6.0 * a)):
                        if plo < tc < phi:
                            ts.append(tc)
                dv = [-(a * t ** 3 + b * t * t + c * t) for t in ts]
                dlo_f, dhi_f = min(dv), max(dv)
                pad = 1e-6 * (1.0 + abs(dlo_f) + abs(dhi_f))
                dlo = int(np.ceil(dlo_f - pad))
                dhi = int(np.floor(dhi_f + pad))
                if dhi >= dlo:
                    app((b, c, dlo, dhi))
    if not out:
        return np.empty((0, 4), dtype=np.int64)
    arr = np.array(out, dtype=np.int64)
    idx, ds = _expand_windows(arr[:, 2], arr[:, 3])
    rows = np.stack(
        [
            np.full(len(ds), a, dtype=np.int64),
            arr[idx, 0],
            arr[idx, 1],
            ds,
        ],
        axis=1,
    )
    return rows


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
    rows = _neg_ird_windows(a, limit)
    if len(rows) == 0:
        return rows
    disc = discriminant(rows.T)
    rows = rows[(disc < 0) & (disc >= -limit)]
    if len(rows) == 0:
        return rows
    rows = rows[_in_open_domain(rows.T)]
    if len(rows) == 0:
        return rows
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
    """One row per orbit with 1 <= |P(rep)| <= limit, as parallel numpy arrays."""

    limit: int
    reps: np.ndarray  # (N, 4) int64, canonical representatives
    disc: np.ndarray  # (N,) int64, signed P
    stab: np.ndarray  # (N,) int64, 1 or 3
    irred: np.ndarray  # (N,) bool
    member: np.ndarray  # (N, 10) bool, membership in L1..L10

    def __len__(self):
        return len(self.disc)


def _pos_irreducible_mask(rows: np.ndarray) -> np.ndarray:
    """Irreducibility for P > 0 rows (up to three real roots, trig Cardano)."""
    irred = np.ones(len(rows), dtype=bool)
    a = rows[:, 0]
    irred[(a == 0) | (rows[:, 3] == 0)] = False
    live = irred.copy()
    for av in np.unique(np.abs(a[live])):
        if av == 0:
            continue
        sel = np.where(live & (np.abs(a) == av))[0]
        sub = rows[sel]
        p, q, shift = _depressed(sub)
        # P > 0 => three distinct real roots => (q/2)^2 + (p/3)^3 < 0, p < 0
        m = np.sqrt(np.maximum(-p / 3.0, 1e-300))
        arg = np.clip(3.0 * q / (2.0 * p * m), -1.0, 1.0)
        phi = np.arccos(arg)
        red = np.zeros(len(sub), dtype=bool)
        for k in range(3):
            t = 2.0 * m * np.cos((phi - 2.0 * np.pi * k) / 3.0) - shift
            red |= _root_near_mask(sub, t, int(av))
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


def _lex_sorted(rows: np.ndarray, stratum: str) -> np.ndarray:
    """The rows in lexicographic order; AssertionError if two are equal.
    (A row-wise unique on numpy's structured view costs many times more.)"""
    rows = rows[_lex_order(rows)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise AssertionError(f"duplicate representatives in {stratum} stratum")
    return rows


# The largest limit Y at which every int64 intermediate of the strata and of
# the column code (discriminant, value_at, hessian, rows @ mat.T) stays below
# 2^63.  By size, in units of Y^2:
#   - discriminant of a reducible row (p, q, r, 0): r = 1 allows p up to
#     (Y + 1) // 4 (r >= 2 allows less), and the partial product 27*a*a is
#     27 p^2 <= 27 ((Y + 1) // 4)^2, about 1.69 Y^2.  This one binds;
#   - small-matrix images of the P > 0 rows (0, b, c, d): b = 1 allows
#     |c| <= 1 and |d| <= Y/4 + 1, so s = |b| + |c| + |d| <= Y/4 + 3.  Image
#     coefficients are at most s (x1, x4) and 3 s (x2, x3), so each Hessian
#     product is at most 9 s^2, about 0.56 Y^2;
#   - in _neg_rd_stratum, q^2 r^2 < 4 r^4 <= 4 Y^2 / 9 (q < 2r, r^2 <= Y/3),
#     and 4 p r^3 <= q^2 r^2 + Y.
# Everything else grows at most like Y^(7/4): the P < 0 irreducible windows
# keep |d| = a |t| s2 of order Y^(7/12), and the P > 0 rows with a != 0 are
# Hessian-reduced.  Measured at Y = 1e4..1e6, these maxima match the terms
# above (1.6875 Y^2 and 0.5625 Y^2) and stay below Y^(7/4).
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

        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_task, tasks)
    else:
        results = [_run_task(t) for t in tasks]

    pos_rows = _ranges_to_rows([r for k, r in results if k == "pos"])
    ird_rows = _ranges_to_rows([r for k, r in results if k == "negird"])
    rd_rows = _ranges_to_rows([r for k, r in results if k == "negrd"])
    del results  # frees the per-task arrays; the three blocks hold copies

    # Each stratum yields one row per orbit by construction; verify rather
    # than assume.  The negative blocks keep their stratum order.
    pos_rows = _lex_sorted(pos_rows, "pos")
    _lex_sorted(ird_rows, "neg-irreducible")
    _lex_sorted(rd_rows, "neg-reducible")

    reps = np.concatenate([pos_rows, ird_rows, rd_rows], axis=0)
    disc = discriminant(reps.T)
    stab = np.ones(len(reps), dtype=np.int64)
    stab[: len(pos_rows)] = _pos_stab_column(pos_rows)
    irred = np.zeros(len(reps), dtype=bool)
    irred[: len(pos_rows)] = _pos_irreducible_mask(pos_rows)
    irred[len(pos_rows): len(pos_rows) + len(ird_rows)] = True

    if not ((disc != 0).all() and (np.abs(disc) <= limit).all()):
        raise AssertionError("enumeration produced out-of-range discriminants")

    master = MasterClasses(limit, reps, disc, stab, irred, lattice_membership(reps.T))
    _MASTER_CACHE[limit] = master
    for k in [k for k in _MASTER_CACHE if k < limit]:
        del _MASTER_CACHE[k]
    return master


# ---------------------------------------------------------------------------
# public record-level interfaces
# ---------------------------------------------------------------------------


def _index_columns(master: MasterClasses, scale: int, max_index: int) -> tuple:
    """(n, by_sign): the index n = |P| // scale of every row and, for each
    sign, the mask of the rows of that sign with 1 <= n <= max_index."""
    n = np.abs(master.disc) // scale
    in_range = (n >= 1) & (n <= max_index)
    return n, {"+": in_range & (master.disc > 0), "-": in_range & (master.disc < 0)}


def _signed_selection(master: MasterClasses, lattice: int, sign: str, columns: tuple):
    """(mask, n) for one (lattice, sign) pair, given the _index_columns of
    the lattice's index scale."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    n, by_sign = columns
    return by_sign[sign] & master.member[:, lattice - 1], n


def enumerate_classes(
    lattice: int,
    sign: str,
    max_index: int,
    workers: int = 1,
) -> list:
    """One ClassRecord per orbit in the lattice with 1 <= index <= max_index.

    The index is |P| for odd lattices and |Q| = |P|/27 for even lattices.
    Sorted by (index, representative).
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    master = master_classes(max_index * index_scale(lattice), workers=workers)
    columns = _index_columns(master, index_scale(lattice), max_index)
    mask, n = _signed_selection(master, lattice, sign, columns)
    idx = np.where(mask)[0]
    # the order of ClassRecord.sort_key: by index, then representative
    idx = idx[_lex_order(np.column_stack((n[idx], master.reps[idx])))]
    return [
        ClassRecord(lattice, sign, k, CubicForm._make(rep), stab, irred)
        for k, rep, stab, irred in zip(
            n[idx].tolist(),
            master.reps[idx].tolist(),
            master.stab[idx].tolist(),
            master.irred[idx].tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# brute-force oracle: box scan + BFS grouping
# ---------------------------------------------------------------------------

_ORACLE_CACHE: dict = {}
_SCAN_CACHE: dict = {}


def _isqrt64(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for int64 n >= 0 with (isqrt(n) + 1)^2 < 2^63.  The
    float64 root of n < 2^63 is within one of the integer root (both n and
    its root are rounded to 53 bits), and one integer step each way fixes it."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _d_windows(a: int, b: np.ndarray, c: np.ndarray, p_limit: int) -> tuple:
    """For a >= 1 and int64 columns b, c: two disjoint d-windows (lo, hi),
    whose union is exactly the d with -p_limit <= P(a, b, c, d) <= p_limit.

    P(d) = -alpha d^2 + B2 d + C2 with alpha = 27 a^2, so
    4 alpha (P(d) - k) = B2^2 + 4 alpha (C2 - k) - (2 alpha d - B2)^2, and
    each bound on P is a bound on the integer |2 alpha d - B2|: an isqrt.
    """
    alpha = 27 * a * a
    B2 = 18 * a * b * c - 4 * b ** 3
    C2 = b * b * c * c - 4 * a * c ** 3
    two_alpha = 2 * alpha
    # P >= -p_limit  <=>  (2 alpha d - B2)^2 <= outer
    outer = B2 * B2 + 4 * alpha * (C2 + p_limit)
    s = _isqrt64(np.maximum(outer, 0))
    lo = _ceil_div(B2 - s, two_alpha)
    hi = np.where(outer >= 0, (B2 + s) // two_alpha, lo - 1)
    # P > p_limit  <=>  (2 alpha d - B2)^2 < inner: the gap between the windows
    inner = B2 * B2 + 4 * alpha * (C2 - p_limit)
    t = _isqrt64(np.maximum(inner, 0))
    t -= t * t == inner  # strict: |2 alpha d - B2| <= t
    gap = inner > 0
    glo = np.where(gap, _ceil_div(B2 - t, two_alpha), hi + 1)
    ghi = np.where(gap, (B2 + t) // two_alpha, hi)
    return (lo, np.minimum(hi, glo - 1)), (np.maximum(lo, ghi + 1), hi)


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


def _box_survivors(box: int, p_limit: int, family: int) -> np.ndarray:
    """Forms in [-box, box]^4 with 1 <= |P| <= p_limit, each once; family 2
    keeps L2 only (b, c in 3Z).

    For fixed (a, b, c), |P| <= p_limit confines d to exact integer windows:
    P is linear in d for a = 0 and a downward parabola (at most two windows,
    _d_windows) for a != 0.  Only a >= 1, and a = 0 with b >= 1, are scanned;
    negation maps them onto the rest, since P(-f) = P(f).  The exact test
    p != 0, |p| <= p_limit runs on every candidate.
    """
    side = np.arange(-box, box + 1, dtype=np.int64)
    bc_side = side[side % 3 == 0] if family == 2 else side
    b_grid, c_grid = np.meshgrid(bc_side, bc_side, indexing="ij")
    b = b_grid.ravel()
    c = c_grid.ravel()
    chunks = []

    def emit(a, b, c, lo, hi):
        idx, ds = _expand_windows(np.maximum(lo, -box), np.minimum(hi, box))
        rows = np.stack(
            [np.full(len(ds), a, dtype=np.int64), b[idx], c[idx], ds], axis=1
        )
        p = discriminant(rows.T)
        chunks.append(rows[(p != 0) & (np.abs(p) <= p_limit)])

    # a = 0 < b: P = b^2 c^2 - 4 b^3 d falls with d
    b0, c0 = b[b > 0], c[b > 0]
    bbcc, slope = b0 * b0 * c0 * c0, 4 * b0 ** 3
    emit(0, b0, c0, _ceil_div(bbcc - p_limit, slope), (bbcc + p_limit) // slope)
    for a in range(1, box + 1):
        for lo, hi in _d_windows(a, b, c, p_limit):
            emit(a, b, c, lo, hi)
    rows = _ranges_to_rows(chunks)
    return np.concatenate([rows, -rows])


def _group_box_orbits(box: int, p_limit: int, cap: int, family: int, scan_box: int) -> list:
    """Group the box survivors into orbits; returns the lexmin in-box reps.
    The survivors are filtered from the scan at scan_box >= box, which is
    made once per (scan_box, p_limit, family)."""
    key = (box, p_limit, cap, family)
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    scan_key = (scan_box, p_limit, family)
    if scan_key not in _SCAN_CACHE:
        _SCAN_CACHE[scan_key] = _box_survivors(*scan_key)
    survivors = _SCAN_CACHE[scan_key]
    survivors = survivors[(np.abs(survivors) <= box).all(axis=1)]
    todo = set(map(tuple, survivors.tolist()))
    reps = []
    while todo:
        orbit = orbit_bfs(todo.pop(), cap)
        todo -= orbit
        reps.append(min(x for x in orbit if -box <= min(x) and max(x) <= box))
    reps.sort()
    _ORACLE_CACHE[key] = reps
    return reps


def brute_force_classes(
    lattice: int,
    sign: str,
    max_index: int,
    box: int,
    cap: int | None = None,
    check_stability: bool = False,
) -> list:
    """Independent oracle: box enumeration + BFS orbit grouping.

    Correct only when every orbit with index <= max_index has a member in
    [-box, box]^4 and box members are BFS-connected within the cap (default
    4 * box).  With check_stability=True the run is repeated at
    stability_box(box) = (3 * box + 1) // 2, with 1.5 times the cap, and a
    warning is raised if the class multiset changes; one scan at that box
    serves both runs.  The box scanned may not exceed MAX_BOX, nor the
    discriminant bound MAX_LIMIT, the bounds of exact int64 arithmetic.
    """
    if cap is None:
        cap = 4 * box
    p_limit = max_index * index_scale(lattice)
    scan_box = stability_box(box) if check_stability else box
    if scan_box > MAX_BOX:
        raise ValueError(f"box {scan_box} exceeds the int64 safety bound {MAX_BOX}")
    if p_limit > MAX_LIMIT:
        raise ValueError(f"limit {p_limit} exceeds the int64 safety bound {MAX_LIMIT}")
    records = _oracle_records(lattice, sign, max_index, box, p_limit, cap, scan_box)
    if check_stability:
        bigger = _oracle_records(
            lattice, sign, max_index, scan_box, p_limit, cap * 3 // 2, scan_box
        )
        a = sorted((r.n, r.stab_order, r.irreducible) for r in records)
        b = sorted((r.n, r.stab_order, r.irreducible) for r in bigger)
        if a != b:
            warnings.warn(
                f"brute_force_classes unstable under box growth "
                f"({box} -> {scan_box}) for (L{lattice}, {sign}); "
                f"results may be incomplete",
                stacklevel=2,
            )
    return records


def _oracle_records(lattice, sign, max_index, box, p_limit, cap, scan_box) -> list:
    family = 2 if lattice in EVEN_LATTICES else 1
    reps = _group_box_orbits(box, p_limit, cap, family, scan_box)
    scale = index_scale(lattice)
    want_pos = sign == "+"
    records = []
    for rep in reps:
        if not lattice_member(rep, lattice):
            continue
        p = discriminant(rep)
        if (p > 0) != want_pos:
            continue
        if abs(p) % scale:
            continue
        n = abs(p) // scale
        if not 1 <= n <= max_index:
            continue
        f = CubicForm(*rep)
        records.append(
            ClassRecord(
                lattice,
                sign,
                n,
                f,
                stabilizer_order(f),
                is_irreducible(f),
            )
        )
    records.sort(key=ClassRecord.sort_key)
    return records
