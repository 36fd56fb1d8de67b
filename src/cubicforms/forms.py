"""Exact arithmetic on integral binary cubic forms.

Forms are 4-tuples (x1, x2, x3, x4) of Python integers (arbitrary precision,
so arithmetic can never wrap).  The group GL2(Z) acts by substitution twisted
by 1/det; the discriminant P is a degree-4 invariant with P(g.f) = det(g)^2 P(f).

The polynomial helpers (discriminant, value_at, hessian) are pure arithmetic,
so they also accept coefficient columns, e.g. rows.T of an (N, 4) numpy array.
_d_windows solves lo <= P <= hi for the last coefficient exactly on int64
columns, from the Hessian syzygy 27 a^2 P = 4 H^3 - G^2; the enumeration
strata and the brute-force oracle both scan with it.
The invariant lattices L1..L10 are defined once, by their Z-bases
(lattice_basis).  Membership is one lattice-major residue table mod 6
generated from those bases (residue_span, the span of rows mod m), read in
one place (_membership) by the scalar and the columnwise callers and by the
master's uint16 column of residue rows (_residue_row).  bareiss is the one exact
elimination, fraction-free over Z (every rank and determinant), and
_first_rise the one exact integer search (rational_roots, the enumeration's
root masks and bounds, _icbrt, reduction._root_reduce): no scalar float root
is left, only the column square root _isqrt64 (exact as is below 2^52,
corrected by one integer step each way past it).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import index
from typing import NamedTuple

import numpy as np


class CubicForm(NamedTuple):
    """x1*u^3 + x2*u^2*v + x3*u*v^2 + x4*v^3 with integer coefficients."""

    x1: int
    x2: int
    x3: int
    x4: int

    def __neg__(self) -> "CubicForm":
        return CubicForm(-self.x1, -self.x2, -self.x3, -self.x4)


def _int_form(f) -> CubicForm:
    """f as a CubicForm of Python ints, each coefficient through
    operator.index: numpy integers become exact (no int64 wraparound), and
    floats raise TypeError.  The scalar entry points read their form here."""
    return CubicForm(*map(index, f))


class UnimodularMatrix(NamedTuple):
    """2x2 integer matrix (p q; r s) with determinant +-1."""

    p: int
    q: int
    r: int
    s: int

    @property
    def det(self) -> int:
        return self.p * self.s - self.q * self.r

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )


class QuadraticForm(NamedTuple):
    """A*u^2 + B*u*v + C*v^2; helper covariant for reduction."""

    A: int
    B: int
    C: int

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
U1 = UnimodularMatrix(1, 1, 0, 1)        # u(1)
U1_INV = UnimodularMatrix(1, -1, 0, 1)   # u(-1)
W = UnimodularMatrix(0, 1, -1, 0)        # w


def u_of(alpha: int) -> UnimodularMatrix:
    """The unipotent element u(alpha) = (1 alpha; 0 1)."""
    return UnimodularMatrix(1, alpha, 0, 1)


def discriminant(f) -> int:
    """P(f) = x2^2 x3^2 - 4 x1 x3^3 - 4 x2^3 x4 + 18 x1 x2 x3 x4 - 27 x1^2 x4^2,
    evaluated as c^2 (b^2 - 4ac) + d (b (18ac - 4b^2) - 27 a^2 d) for
    f = (a, b, c, d): products only, no powers.  On broadcastable
    coefficient columns, P of the broadcast shape."""
    a, b, c, d = f
    return c * c * (b * b - 4 * a * c) + d * (b * (18 * a * c - 4 * b * b) - 27 * a * a * d)


def _ceil_div(x, y):
    """Ceiling division for nonzero y (works on ints and numpy arrays)."""
    return -((-x) // y)


def _isqrt64(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for int64 n >= 0 with (isqrt(n) + 1)^2 < 2^63.  When
    every n is below 2^52, the truncated float64 root is exact: n is exact in
    float64, sqrt rounds correctly, and for k = isqrt(n) + 1 <= 2^26,
    sqrt(k^2 - 1) < k - 1/(2k) lies more than half an ulp below k.  Past
    that, the float64 root of n < 2^63 is within one of the integer root
    (both n and its root are rounded to 53 bits), and one integer step each
    way fixes it."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    if n.max(initial=0) < 2 ** 52:
        return s
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _d_windows(a: int, b: np.ndarray, c: np.ndarray, lo: int, hi: int) -> tuple:
    """For an int a >= 0, or an int64 column of a >= 1, and int64 columns
    b, c (b >= 1 where a = 0): two disjoint d-windows (lo_i, hi_i), the
    first below the second, whose union is exactly the d with
    lo <= P(a, b, c, d) <= hi.

    For a >= 1, alpha P = 4 H^3 - G^2 with alpha = 27 a^2, H = b^2 - 3ac
    (the Hessian's A) and G = g0 + alpha d, g0 = b (2 b^2 - 9ac).  So with
    K = 4 H^3, P >= k iff G^2 <= K - alpha k, and each bound on P is a
    bound on the integer |G|: an isqrt.  Writing P = -alpha d^2 + B2 d + C2,
    K - alpha k is a quarter of B2^2 + 4 alpha (C2 - k) (B2 = -2 g0), so the
    int64 intermediates are exact while n = B2^2 + 4 alpha (|C2| +
    max(|lo|, |hi|)) has (isqrt(n) + 1)^2 < 2^63.  For a = 0,
    P = b^2 c^2 - 4 b^3 d falls with d: one window, and an empty second one.
    """
    if not np.ndim(a) and a == 0:
        bbcc, slope = b * b * c * c, 4 * b ** 3
        first = (_ceil_div(bbcc - hi, slope), (bbcc - lo) // slope)
        return first, (first[1] + 1, first[1])
    alpha = 27 * a * a
    H = b * b - 3 * a * c
    g0 = b * (2 * b * b - 9 * a * c)
    K = 4 * H * H * H
    # P >= lo  <=>  |G| <= isqrt(K - alpha lo)
    outer = K - alpha * lo
    s = _isqrt64(np.maximum(outer, 0))
    w_lo = _ceil_div(-s - g0, alpha)
    w_hi = np.where(outer >= 0, (s - g0) // alpha, w_lo - 1)
    # P > hi  <=>  G^2 < K - alpha hi = inner: the gap between the windows
    inner = K - alpha * hi
    t = _isqrt64(np.maximum(inner, 0))
    t -= t * t == inner  # strict: |G| <= t
    gap = inner > 0
    g_lo = np.where(gap, _ceil_div(-t - g0, alpha), w_hi + 1)
    g_hi = np.where(gap, (t - g0) // alpha, w_hi)
    return (w_lo, np.minimum(w_hi, g_lo - 1)), (np.maximum(w_lo, g_hi + 1), w_hi)


def value_at(f, p, q):
    """Homogeneous value f(p, q) = x1 p^3 + x2 p^2 q + x3 p q^2 + x4 q^3."""
    a, b, c, d = f
    return a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3


def q_discriminant(f) -> int:
    """P(f)/27 for forms in L2 (where P is always divisible by 27)."""
    if not lattice_member(f, 2):
        raise ValueError(f"form {tuple(f)} is not in L2; q_discriminant undefined")
    p = discriminant(f)
    q, rem = divmod(p, 27)
    if rem:
        raise AssertionError(f"P({tuple(f)}) = {p} not divisible by 27 despite L2 membership")
    return q


def act(g, f) -> CubicForm:
    """Substitute (u,v) -> (p*u + r*v, q*u + s*v) and divide by det(g).

    Satisfies P(act(g, f)) = det(g)^2 * P(f) and act(g, act(h, f)) = act(g@h, f).
    """
    p, q, r, s = map(index, g)
    det = p * s - q * r
    if det not in (1, -1):
        raise ValueError(f"matrix {tuple(g)} has determinant {det}, not +-1")
    a, b, c, d = _int_form(f)
    na = a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3
    nb = (
        3 * a * p * p * r
        + b * (p * p * s + 2 * p * q * r)
        + c * (q * q * r + 2 * p * q * s)
        + 3 * d * q * q * s
    )
    nc = (
        3 * a * p * r * r
        + b * (q * r * r + 2 * p * r * s)
        + c * (p * s * s + 2 * q * r * s)
        + 3 * d * q * s * s
    )
    nd = a * r ** 3 + b * r * r * s + c * r * s * s + d * s ** 3
    return CubicForm(na * det, nb * det, nc * det, nd * det)


def action_matrix(g) -> list:
    """4x4 integer matrix M with act(g, f) = M @ f (forms as column vectors)."""
    cols = [act(g, e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def psi(f) -> CubicForm:
    """u(1).f - f = (x2+x3+x4, 2*x3+3*x4, 3*x4, 0)."""
    _, b, c, d = f
    return CubicForm(b + c + d, 2 * c + 3 * d, 3 * d, 0)


def pairing(x, y) -> Fraction:
    """Alternating form <x,y> = x1*y4 - x2*y3/3 + x3*y2/3 - x4*y1.

    Accepts integer or rational coordinates; returns an exact Fraction.
    """
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    return (
        Fraction(x1) * y4
        - Fraction(x2, 1) * y3 / 3
        + Fraction(x3, 1) * y2 / 3
        - Fraction(x4) * y1
    )


def hessian(f) -> QuadraticForm:
    """Hessian covariant (x2^2-3x1x3, x2x3-9x1x4, x3^2-3x2x4); disc = -3*P(f)."""
    a, b, c, d = f
    return QuadraticForm(b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d)


def delta(f) -> int:
    """Delta = a*c^3 + b^3*d - a^2*d^2, so P = (bc+ad)^2 - 4*Delta + 16(abcd - 2a^2d^2)."""
    a, b, c, d = f
    return a * c ** 3 + b ** 3 * d - a * a * d * d


# Z-bases of the odd lattices: the one definition of L1..L10.  The even
# lattices are their images under phi: L2i = phi(L_EVEN_PARTNER[2i]).
_ODD_BASES = {
    1: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    3: ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0), (0, 2, 0, 0)),
    5: ((2, 0, 0, 0), (0, 0, 0, 2), (0, 1, 1, 0), (0, 2, 0, 0)),
    7: ((1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 2)),
    9: ((1, 1, 1, 0), (0, 1, 1, 1), (2, 0, 0, 0), (0, 2, 0, 0)),
}
EVEN_PARTNER = {2: 1, 4: 5, 6: 3, 8: 9, 10: 7}
EVEN_LATTICES = tuple(EVEN_PARTNER)


def phi(f) -> tuple:
    """(x1, x2, x3, x4) -> (x1, 3 x2, 3 x3, x4), which maps each odd lattice
    onto its even partner; ints or coefficient columns."""
    a, b, c, d = f
    return (a, 3 * b, 3 * c, d)


def lattice_basis(lattice: int) -> tuple:
    """Z-basis of L_lattice (rows).  ValueError for a lattice outside 1..10,
    TypeError for a float or a bool one (_check_lattice)."""
    lattice = _check_lattice(lattice)
    if lattice in EVEN_PARTNER:
        return tuple(phi(v) for v in _ODD_BASES[EVEN_PARTNER[lattice]])
    return _ODD_BASES[lattice]


def _check_lattice(lattice: int) -> int:
    """The lattice index, read through operator.index (TypeError for a
    float or a bool); ValueError outside 1..10."""
    if isinstance(lattice, bool):
        raise TypeError(f"lattice index must be an integer, not {lattice!r}")
    lattice = index(lattice)
    if not 1 <= lattice <= 10:
        raise ValueError(f"lattice index must be 1..10, got {lattice}")
    return lattice


def index_scale(lattice: int) -> int:
    """|P| per unit of index: 27 on even lattices (index |Q| = |P|/27), else 1.
    ValueError for a lattice outside 1..10, TypeError for a float one."""
    _check_lattice(lattice)
    return 27 if lattice in EVEN_LATTICES else 1


def sublattice_of(lattice: int) -> int:
    """2 if L_lattice lies in L2 = {3 | x2, x3} (the even lattices), else 1:
    the lattice, L1 or L2, whose orbits an enumeration of L_lattice builds.
    ValueError for a lattice outside 1..10, TypeError for a float one."""
    _check_lattice(lattice)
    return 2 if lattice in EVEN_LATTICES else 1


def _residue_row(f):
    """Row ((a*6 + b)*6 + c)*6 + d of the residue table for f = (a, b, c, d),
    each coefficient reduced mod 6 as x - 6 (x // 6): numpy divides an int64
    column by a constant several times faster than it takes a remainder.
    One coefficient is reduced at a time, so a column pass holds no more
    than two temporaries."""
    a, b, c, d = f
    mod6 = lambda x: x // 6 * -6 + x
    return ((mod6(a) * 6 + mod6(b)) * 6 + mod6(c)) * 6 + mod6(d)


def residue_grid(mod: int) -> np.ndarray:
    """All of (Z/mod)^4 as coefficient columns, shape (4, mod^4), in
    lexicographic order."""
    return np.indices((mod,) * 4).reshape(4, -1)


def residue_span(rows, mod: int) -> np.ndarray:
    """The combinations c . rows mod `mod` of four rows of length 4, one per
    c in (Z/mod)^4: shape (mod^4, 4), with repeats when the rows are
    dependent mod `mod`."""
    return residue_grid(mod).T @ np.array(rows, dtype=np.int64) % mod


def bareiss(rows) -> tuple:
    """Fraction-free forward elimination over Z (Bareiss, Math. Comp. 22,
    1968): (pivots, det).

    Entries are read through operator.index, so a float or Fraction raises
    TypeError.  Each step replaces a row below the pivot row by
    (p*x - f*y) // prev, p the pivot and prev the one before it: every
    entry is then a minor of the input, so each division is exact.  A
    column with no pivot is skipped; len(pivots) is the rank.  det is the
    determinant of the leading square block (the first len(rows) columns),
    zero when it is singular.
    """
    m = [[index(x) for x in row] for row in rows]
    pivots, sign, prev = [], 1, 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == len(m):
            break
        piv = next((i for i in range(k, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][col]
        for i in range(k + 1, len(m)):
            f = m[i][col]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = p
        pivots.append(col)
    return pivots, sign * prev if pivots == list(range(len(m))) else 0


def _membership_table() -> np.ndarray:
    """(10, 6^4) booleans, lattice-major: row i - 1 is the membership of
    each residue tuple mod 6 in L_i, so one lattice's read is a gather from
    one contiguous row.  L_i mod 6 is the residue_span of its basis rows
    mod 6.  Every L_i contains 6 Z^4 (checked by
    latclass.verify_indices_and_duality), so a form's residues mod 6 decide
    its membership."""
    table = np.zeros((10, 6 ** 4), dtype=bool)
    for i in range(1, 11):
        table[i - 1, _residue_row(residue_span(lattice_basis(i), 6).T)] = True
    return table


_MEMBERSHIP = _membership_table()
_MEMBERSHIP.flags.writeable = False  # one form's lookup is a view of it


def _membership(res, lattice: int | None = None):
    """Membership of the forms with residue rows res (_residue_row: an int,
    or an integer array such as the master's uint16 column) in L_lattice,
    a take from the lattice's row of the table, or with lattice None in
    L1..L10 (a trailing axis of ten): the one read of the residue table.
    ValueError for a lattice outside 1..10, TypeError for a float one."""
    if lattice is None:
        return np.moveaxis(_MEMBERSHIP[:, res], 0, -1)
    return _MEMBERSHIP[_check_lattice(lattice) - 1].take(res)


def lattice_membership(f) -> np.ndarray:
    """Membership in L1..L10: shape (10,) for one form, (N, 10) for
    coefficient columns (e.g. rows.T of an (N, 4) array).  Broadcastable
    columns give the broadcast shape plus a trailing axis of ten."""
    return _membership(_residue_row(f))


def lattice_member(f, lattice: int):
    """Membership in L_lattice, lattice in 1..10: a bool for one form, an
    (N,) bool array for coefficient columns (a take from the lattice's row
    of the table).  Broadcastable columns give a bool array of the
    broadcast shape.
    ValueError for a lattice outside 1..10, TypeError for a float one."""
    member = _membership(_residue_row(f), lattice)
    return bool(member) if member.ndim == 0 else member


def _monic_cubic(b, c, e):
    """y -> y^3 + b y^2 + c y + e by Horner: pure arithmetic, like value_at."""
    return lambda y: ((y + b) * y + c) * y + e


def _monotone_pieces(g, b, h, s, lo, hi) -> tuple:
    """(lo, k1, g), (k1 + 1, k2, -g), (k2 + 1, hi, g): the pieces of [lo, hi]
    on which the monic g(y) = y^3 + b y^2 + c y + e, h = b^2 - 3c >= 0,
    rises, falls and rises, each with the function that rises there.  k1
    and k2 floor the critical points (-b -+ sqrt(h)) / 3; s = isqrt(h)."""
    k1, k2 = (-b - s - (s * s < h)) // 3, (s - b) // 3
    return (lo, k1, g), (k1 + 1, k2, lambda y: -g(y)), (k2 + 1, hi, g)


def _first_rise(g, lo, hi, width: int):
    """The least y >= lo with y >= hi or g(y) >= 0: where g changes sign at
    most once on [lo, hi], from < 0 to >= 0, g has a root there iff g(y) = 0.
    Exact integer bisection in pure arithmetic, like discriminant: on Python
    ints, or on integer columns with one step bound width >= hi - lo + 1 for
    every row.  The answer stays in [lo, lo + n) while n halves from width
    to 1: ceil(log2(width)) evaluations of g."""
    n = width
    while n > 1:
        half = n // 2
        mid = lo + (half - 1)
        lo = lo + half * ((mid < hi) & (g(mid) < 0))
        n -= half
    return lo


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an int n >= 0, by _first_rise on [0, 2^(bits // 3 + 1)]."""
    top = 1 << (n.bit_length() // 3 + 1)
    return _first_rise(lambda y: y ** 3 - n - 1, 0, top, top + 1) - 1


def _integer_roots(b: int, c: int, e: int) -> set:
    """The integer roots of the monic cubic g(y) = y^3 + b y^2 + c y + e.

    With h = b^2 - 3c (clipped at 0, where g rises throughout), exact
    integer bisection (_first_rise) finds the one candidate on each
    monotone piece of [-r, r] (_monotone_pieces).  Every root lies in
    (-r, r) for r = 2 max(|b|, isqrt(|c|) + 1, _icbrt(|e| // 2) + 1), the
    Fujiwara bound 2 max(|b|, |c|^(1/2), |e / 2|^(1/3)) made strict: at
    |y| >= r, |b y^2| <= |y|^3 / 2 and |c y|, |e| < |y|^3 / 4.  r >= 2|b|
    and r > 2 sqrt(|c|) keep both critical points inside, and this takes
    O(digits) evaluations of g.
    """
    g = _monic_cubic(b, c, e)
    r = 2 * max(abs(b), isqrt(abs(c)) + 1, _icbrt(abs(e) // 2) + 1)
    h = max(b * b - 3 * c, 0)
    roots = set()
    for lo, hi, rising in _monotone_pieces(g, b, h, isqrt(h), -r, r):
        if lo > hi or rising(hi) < 0:  # no root on the piece
            continue
        y = _first_rise(rising, lo, hi, hi - lo + 1)
        if g(y) == 0:
            roots.add(y)
    return roots


def rational_roots(f) -> list:
    """All rational roots of f as primitive pairs (p, q), q >= 0, f(p, q) = 0,
    in increasing order of p/q, the root at infinity (1, 0) last (x1 = 0);
    ValueError if P(f) = 0.

    Roots are of the dehomogenized polynomial x1 t^3 + x2 t^2 + x3 t + x4 at
    t = p/q.  A root p/q in lowest terms has q | x1, so y = x1 p / q is an
    integer and f(y, x1) = x1 g(y) with g(y) = y^3 + x2 y^2 + x1 x3 y +
    x1^2 x4 monic: the roots are y / x1 for the integer roots y of g
    (_integer_roots).  For x1 = 0, f = v (x2 u^2 + x3 u v + x4 v^2) with
    x2 != 0, whose finite roots are rational iff the discriminant
    h = P / x2^2 of the quadratic is a square.  Both are polynomial in the
    digit count of f.
    """
    a, b, c, d = f = _int_form(f)
    if discriminant(f) == 0:
        raise ValueError(f"form {tuple(f)} has zero discriminant")
    if a:
        ts, at_infinity = [Fraction(y, a) for y in _integer_roots(b, a * c, a * a * d)], []
    else:
        h = c * c - 4 * b * d
        s = isqrt(max(h, 0))
        ts = [Fraction(-c - s, 2 * b), Fraction(s - c, 2 * b)] if s * s == h else []
        at_infinity = [(1, 0)]
    return [(t.numerator, t.denominator) for t in sorted(ts)] + at_infinity


def is_irreducible(f) -> bool:
    """True iff f has no linear factor over Q: no rational root
    (rational_roots).  ValueError if P(f) = 0; forms with repeated factors
    are outside the domain."""
    return not rational_roots(f)
