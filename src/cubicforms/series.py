"""Exact Dirichlet-series coefficients and the identities between them.

For a lattice L and sign +-, the coefficient at index n is

    a_n = sum over SL2(Z)-orbits in L with index n of 1 / |stabilizer|,

an element of (1/3) Z.  The index is |P| for odd-numbered lattices and
|P| / 27 for even-numbered ones.  The orbits of a series and their indices
are the rows MasterClasses.select gives for its (lattice, sign) pair.  A
series holds int64 orbit counts by n, so a_n = c1 + c3/3 is exact.  The
coefficientwise identities compare whole arrays of 3 a_n; those mixing the
two signs live in Z[sqrt(3)] (exact class Qrt3) and compare the rational and
the sqrt(3) part as two arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from operator import index

import numpy as np

from .enumeration import _COLUMNS, MasterClasses, _check_selection, _sign_positive, master_classes
from .forms import (
    EVEN_LATTICES,
    _check_lattice,
    _membership,
    _residue_row,
    bareiss,
    discriminant,
    index_scale,
    phi,
    residue_grid,
    sublattice_of,
)
from .golden import golden_table

ALL_PAIRS = tuple((lat, sign) for lat in range(1, 11) for sign in ("+", "-"))


# ---------------------------------------------------------------------------
# exact arithmetic in Z[sqrt(3)] (for the sqrt(3)-weighted combinations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Qrt3:
    """Exact element a + b*sqrt(3) of Q(sqrt(3))."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, other: "Qrt3") -> "Qrt3":
        return Qrt3(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Qrt3") -> "Qrt3":
        return Qrt3(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Qrt3") -> "Qrt3":
        return Qrt3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(3)"


# ---------------------------------------------------------------------------
# coefficient series
# ---------------------------------------------------------------------------


@dataclass
class CoefficientSeries:
    """Exact coefficients a_n, n = 1..max_n, of one (lattice, sign) series.

    `orbits[s, i, n]` is an int64 count: the orbits of index n whose stabilizer
    has order (1, 3)[s] and which are reducible (i = 0) or irreducible (i = 1);
    n = 0 is always empty.  a_n = c1 + c3/3 is exact, with c1 and c3 the counts
    of the two stabilizer orders, so 3 a_n is an integer (`thirds`); a
    Fraction is made only by `coeff`.  The dense length max_n + 1 is small
    next to the master rows it is counted from.
    """

    lattice: int
    sign: str
    max_n: int
    orbits: np.ndarray  # (2, 2, max_n + 1) int64

    def thirds(self, upto: int | None = None, irreducible: bool | None = None) -> np.ndarray:
        """3 a_n (int64) for n = 0..upto, by default max_n; with `irreducible`
        given, only the irreducible or only the reducible orbits count."""
        upto = self.max_n if upto is None else upto
        if not 0 <= upto <= self.max_n:
            raise ValueError(f"n = {upto} outside computed range 0..{self.max_n}")
        return _thirds(self.orbits[:, :, : upto + 1], irreducible)

    def coeff(self, n: int) -> Fraction:
        """a_n exactly.  ValueError outside 1..max_n, TypeError for an n
        that is not an integer (operator.index)."""
        n = index(n)
        if not 1 <= n <= self.max_n:
            raise ValueError(f"n = {n} outside computed range 1..{self.max_n}")
        c1, c3 = self.orbits[:, :, n].sum(axis=1).tolist()
        return Fraction(3 * c1 + c3, 3)


def _thirds(orbits: np.ndarray, irreducible: bool | None = None) -> np.ndarray:
    """3 a_n (int64) from (2, 2, k) orbit counts [stab is 3, irreducible,
    n], all orbits or, with `irreducible` given, only the irreducible or
    only the reducible ones: the one rule of CoefficientSeries.thirds."""
    c = orbits.sum(axis=1) if irreducible is None else orbits[:, int(irreducible)]
    return 3 * c[0] + c[1]


def count_orbits(chunks, lattice: int, sign: str, max_index: int, edges=None) -> np.ndarray:
    """The one count of a (lattice, sign) pair's orbits, (2, 2, bins) int64
    [stab is 3, irreducible, bin], over what each chunk (a master, or one of
    enumeration._task_orbits) selects (MasterClasses.select).  The bin is
    the index n, or with edges the number of edges <= n."""
    if max_index < 1:  # before the counts are sized, even with no chunk
        raise ValueError("max_index must be >= 1")
    bins = max_index + 1 if edges is None else len(edges) + 1
    counts = np.zeros(4 * bins, dtype=np.int64)
    for chunk in chunks:
        rows, n = chunk.select(lattice, sign, max_index)
        stab = chunk.stab[rows]
        three = stab == 3
        if not (three | (stab == 1)).all():
            raise ValueError("stabilizer orders must be 1 or 3")
        key = n if edges is None else np.searchsorted(edges, n, side="right")
        key += bins * (2 * three + chunk.irred[rows])
        np.add.at(counts, key, 1)
        del rows, n, stab, three, key  # not held while the next chunk is built
    return counts.reshape(2, 2, bins)


# sublattice -> the largest master the verify suites have built in it
_VERIFY_MASTERS: dict = {}


def _verify_master(limit: int, sublattice: int) -> MasterClasses:
    """The verify suites' master of the sublattice at limit: the largest one
    built in it so far, cut to |P| <= limit, or a new build (master_classes)
    that replaces it.  _check_selection runs first, memoised master or not."""
    limit = _check_selection(limit, sublattice)
    master = _VERIFY_MASTERS.get(sublattice)
    if master is None or master.limit < limit:
        master = _VERIFY_MASTERS[sublattice] = master_classes(limit, sublattice=sublattice)
    if master.limit == limit:
        return master
    keep = np.abs(master.disc) <= limit
    cut = [getattr(master, name)[keep] for name in _COLUMNS]
    return MasterClasses(limit, *cut, sublattice=sublattice)


def _series_source(max_n: int, series: dict | None = None):
    """A function (lattice, sign) -> the pair's series up to index max_n:
    a lookup in series if given, else a count (count_orbits) over the L1
    master at max_n (the odd lattices) or the L2 master at 27 max_n (the
    even lattices lie in L2 and index by |P| / 27), both the verify
    suites' shared masters (_verify_master).

    The counts are made on demand and kept by no one here, so a check that
    reads one relation at a time holds one relation's series: twenty
    (2, 2, N + 1) int64 series take 2.37 GB at N = 3.7e6, two take 237 MB.
    This keeps the int64 counts (no bound on a count to argue)."""
    if series is not None:
        return series.__getitem__
    masters = {sub: _verify_master(max_n * index_scale(sub), sub) for sub in (1, 2)}
    return lambda pair: CoefficientSeries(
        *pair, max_n, count_orbits([masters[sublattice_of(pair[0])]], *pair, max_n)
    )


def build_all_series(max_n: int) -> dict:
    """All twenty series (lattice 1..10, both signs) up to index max_n, from
    the L1 master at max_n and the L2 master at 27 max_n."""
    source = _series_source(max_n)
    return {pair: source(pair) for pair in ALL_PAIRS}


# ---------------------------------------------------------------------------
# check reporting
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"

    def __str__(self) -> str:
        out = [self.line()]
        out.extend(f"    {d}" for d in self.details)
        return "\n".join(out)


def _report(name: str, failures: list, extra: list | None = None) -> CheckReport:
    details = list(extra or [])
    details.extend(failures[:20])
    if len(failures) > 20:
        details.append(f"... and {len(failures) - 20} more failures")
    return CheckReport(name, not failures, details)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def table_multiplier(lattice: int, sign: str) -> int:
    """Printed table entries are 3 * a_n except in even-lattice minus columns.
    ValueError for a lattice outside 1..10 or a sign other than '+' and '-',
    TypeError for a lattice that is not an integer."""
    positive = _sign_positive(sign)
    return 1 if (_check_lattice(lattice) in EVEN_LATTICES and not positive) else 3


def render_table(side: str, series: dict) -> list:
    """Rows (n, (entry_1, ..., entry_10)) as exact Fractions, golden layout."""
    gold = golden_table(side)
    rows = []
    for n, _ in gold.rows:
        entries = []
        for lat, sign in gold.columns:
            s = series[(lat, sign)]
            entries.append(table_multiplier(lat, sign) * s.coeff(n))
        rows.append((n, tuple(entries)))
    return rows


def verify_tables(series: dict | None = None) -> CheckReport:
    """Every entry of both reference tables, exactly."""
    if series is None:
        series = build_all_series(51)
    failures = []
    checked = 0
    for side in ("left", "right"):
        gold = golden_table(side)
        for (n, expected), (_, computed) in zip(gold.rows, render_table(side, series)):
            for (lat, sign), want, got in zip(gold.columns, expected, computed):
                checked += 1
                if got != Fraction(want):
                    failures.append(
                        f"{side} table, n={n}, (L{lat}, {sign}): expected {want}, got {got}"
                    )
    return _report("golden tables", failures, [f"{checked} entries checked"])


# ---------------------------------------------------------------------------
# relation identities
# ---------------------------------------------------------------------------

RELATION_PAIRS = (
    # (name, left (lattice, sign), right (lattice, sign), scalar on left)
    ("xi-(L1) = xi+(L2)", (1, "-"), (2, "+"), 1),
    ("3 xi+(L1) = xi-(L2)", (1, "+"), (2, "-"), 3),
    ("xi-(L7) = xi+(L8)", (7, "-"), (8, "+"), 1),
    ("3 xi+(L7) = xi-(L8)", (7, "+"), (8, "-"), 3),
    ("xi-(L9) = xi+(L10)", (9, "-"), (10, "+"), 1),
    ("3 xi+(L9) = xi-(L10)", (9, "+"), (10, "-"), 3),
)


def _relation_comparisons(max_n: int, series: dict | None = None):
    """For each of RELATION_PAIRS in order, (name, lhs, rhs, bad): scalar
    times 3 a_n of the left series, 3 a_n of the right one (n = 0..max_n)
    and the n where they differ, the one comparison of the six identities.
    A relation's two series are counted when it is reached (_series_source)."""
    source = _series_source(max_n, series)
    for name, left, right, scalar in RELATION_PAIRS:
        lhs = scalar * source(left).thirds(max_n)
        rhs = source(right).thirds(max_n)
        yield name, lhs, rhs, np.flatnonzero(lhs != rhs).tolist()


def verify_relations(max_n: int = 300, series: dict | None = None) -> CheckReport:
    """The six coefficientwise identities between odd and even lattices
    (_relation_comparisons)."""
    failures = []
    for name, lhs, rhs, bad in _relation_comparisons(max_n, series):
        failures += [
            f"{name} fails at n={n}: {Fraction(int(lhs[n]), 3)} != {Fraction(int(rhs[n]), 3)}"
            for n in bad
        ]
        del lhs, rhs  # not held while the next relation is counted
    return _report(
        f"relation identities (n <= {max_n})", failures, [f"6 identities x {max_n} coefficients"]
    )


def verify_non_relation(series: dict | None = None) -> CheckReport:
    """Witness that xi-(L3) and xi+(L4) do not satisfy the analogous identity."""
    if series is None:
        series = build_all_series(7)
    a = series[(3, "-")].coeff(7)
    b = series[(4, "+")].coeff(7)
    ok = a == Fraction(1) and b == Fraction(0)
    details = [f"xi-(L3) coefficient at n=7 is {a} (want 1)",
               f"xi+(L4) coefficient at n=7 is {b} (want 0)"]
    return CheckReport("non-relation witness at n=7", ok, details)


# ---------------------------------------------------------------------------
# lattice decompositions L7, L9 (and L8, L10) by discriminant residue mod 8
# ---------------------------------------------------------------------------

# (lattice, doubled sublattice base, residue of P mod 8 on the complement)
_DECOMPOSITIONS = (
    (7, 1, 1),   # L7 = 2*L1  U  {x in L1 : P(x) = 1 mod 8}
    (9, 1, 5),   # L9 = 2*L1  U  {x in L1 : P(x) = 5 mod 8}
    (8, 2, 5),   # L8 = 2*L2  U  {x in L2 : Q(x) = 7 mod 8}; Q = 3P mod 8 => P = 5
    (10, 2, 1),  # L10 = 2*L2 U  {x in L2 : Q(x) = 3 mod 8}; Q = 3P mod 8 => P = 1
)


# The largest box verify_decompositions accepts (ValueError past it).  The
# box check reads P mod 8 and the residue rows from the coordinates reduced
# mod 8 and mod 6 (_p_mod8, _residue_rows), so this int64 bound on P no
# longer binds it: no value of P is formed, and the grid, at most 3 box
# after phi, is far inside int64.  What the bound still protects is a check
# that reads P whole on the box (the tests' Python-int reference, or an
# int64 one): each of the five terms of P(phi(x)) = P(a, 3b, 3c, d) is at
# most 81, 108, 108, 162 and 27 box^4, so |P| <= 486 box^4 < 2^63.
MAX_DECOMPOSITION_BOX = isqrt(isqrt((2 ** 63 - 1) // 486))  # 11737


# The period of every side of _decomposition_sides in each coordinate
# (lcm of 6 and 8): verify_decompositions reads one point per class mod it.
_BOX_PERIOD = 24


def _reduced(x, mod: int, dtype):
    """x mod `mod`, an array of it narrowed to dtype only once reduced (a
    Python int stays one)."""
    x = x % mod
    return x if isinstance(x, int) else x.astype(dtype)


def _p_mod8(cols):
    """P mod 8 at the points cols (ints or broadcastable integer columns):
    the one rule of the mod-8 checks.  P has integer coefficients, so
    P(x) = P(x mod 8) (mod 8), and the one discriminant runs on the
    coordinates reduced mod 8 as uint16.  uint16 arithmetic is exact mod
    2^16 and 8 divides 2^16, so & 7 is P mod 8 however far a term wraps."""
    return discriminant([_reduced(x, 8, np.uint16) for x in cols]) & 7


def _residue_rows(cols):
    """_residue_row of the points cols, from the coordinates reduced mod 6
    first, as int16: narrowing first would wrap phi's 3 x, which reaches
    35211 at MAX_DECOMPOSITION_BOX, past int16."""
    return _residue_row([_reduced(x, 6, np.int16) for x in cols])


def _decomposition_sides(cols) -> list:
    """For each of _DECOMPOSITIONS in order, (x in lattice, x in 2*base,
    P(x) = p_res mod 8) at the points x = cols (base 1) or x = phi(cols)
    (base 2), in the broadcast shape of the columns.  P mod 8 and the
    residue row of each base are computed once, for both of its lattices."""
    a, b, c, d = cols
    doubled = (a % 2 == 0) & (b % 2 == 0) & (c % 2 == 0) & (d % 2 == 0)
    xs = {1: cols, 2: phi(cols)}
    p8 = {base: _p_mod8(x) for base, x in xs.items()}
    res = {base: _residue_rows(x) for base, x in xs.items()}
    return [
        (_membership(res[base], lattice), doubled, p8[base] == p_res)
        for lattice, base, p_res in _DECOMPOSITIONS
    ]


def verify_decompositions(box: int = 20) -> CheckReport:
    """Each of L7..L10 is the disjoint union of a doubled lattice and a
    discriminant-residue slice; checked exhaustively mod 8 and on the box
    [-box, box]^4.  Every side (_decomposition_sides) depends on x mod 24
    only: the residue rows on x mod 6, the doubling on x mod 2, P mod 8 on
    x mod 8, and phi keeps this (3 x mod 6 and mod 8 depend on x mod 2 and
    x mod 8).  So each class of (Z/24)^4 is read once, at its least
    representative, and its mismatches count once for each of its points
    in the box: the product of the number of x in [-box, box] in each
    coordinate's class.  ValueError for a box outside
    0..MAX_DECOMPOSITION_BOX."""
    if not 0 <= box <= MAX_DECOMPOSITION_BOX:
        raise ValueError(f"box must be in 0..{MAX_DECOMPOSITION_BOX}; got {box}")
    failures = []
    residues = residue_grid(8)
    for (lattice, _, _), (in_lat, doubled, res) in zip(
        _DECOMPOSITIONS, _decomposition_sides(residues)
    ):
        for i in np.flatnonzero((in_lat != (doubled | res)) | (doubled & res)):
            failures.append(
                f"L{lattice} mod-8 failure at residues {tuple(residues[:, i].tolist())}: "
                f"member={in_lat[i]}, doubled={doubled[i]}, residue-slice={res[i]}"
            )
    # set-level check on the integer box, one point per class mod 24: a
    # broadcast (x2, x3, x4) grid of the classes per class of x1
    per_class = np.bincount(np.arange(-box, box + 1) % _BOX_PERIOD, minlength=_BOX_PERIOD)
    side = np.arange(_BOX_PERIOD)
    bcd = side[:, None, None], side[None, :, None], side[None, None, :]
    bad = [0] * len(_DECOMPOSITIONS)
    for a in np.flatnonzero(per_class).tolist():
        for k, (m, dbl, res) in enumerate(_decomposition_sides((a, *bcd))):
            wrong = (m != (dbl | res)).astype(np.int64) + (dbl & res)
            bad[k] += int(per_class[a]) * int(np.einsum("jkl,j,k,l->", wrong, *[per_class] * 3))
    for (lattice, _, _), count in zip(_DECOMPOSITIONS, bad):
        if count:
            failures.append(f"L{lattice} box decomposition: {count} mismatching points")
    return _report(
        f"lattice decompositions (mod 8 exhaustive + box {box})", failures
    )


def verify_congruence_lemma() -> CheckReport:
    """Characterize P = 1 and P = 5 mod 8 by coefficient parities, exhaustively."""
    failures = []
    residues = residue_grid(8)
    p = _p_mod8(residues)
    a, b, c, d = residues % 2
    criteria = {
        1: ((a == 0) & (d == 0) & (b == 1) & (c == 1)) | ((a == 1) & (d == 1) & (b != c)),
        5: ((b == 0) & (c == 0) & (a == 1) & (d == 1)) | ((b == 1) & (c == 1) & (a != d)),
    }
    # one mismatch column per residue r; np.nonzero walks them tuple by tuple
    rs = list(criteria)
    bad = np.stack([(p == r) != criteria[r] for r in rs], axis=1)
    for i, k in zip(*np.nonzero(bad)):
        v = tuple(residues[:, i].tolist())
        failures.append(f"P={rs[k]} mod 8 criterion fails at {v}: P%8={p[i]}")
    return _report("discriminant congruence criteria mod 8 (4096 tuples)", failures)


# ---------------------------------------------------------------------------
# linear span of the twenty series
# ---------------------------------------------------------------------------


def span_rank(max_n: int = 200, series: dict | None = None) -> int:
    """Rank of the 20 x max_n matrix of exact coefficients, by exact elimination
    on the integer rows 3 a_n (scaling a row does not change the rank)."""
    if series is None:
        series = build_all_series(max_n)
    rows = [series[pair].thirds(max_n)[1:].tolist() for pair in ALL_PAIRS]
    return len(bareiss(rows)[0])


# ---------------------------------------------------------------------------
# Euler-product obstruction and the sqrt(3)-twisted identity
# ---------------------------------------------------------------------------


def _combo_coeff(series: dict, lattice: int, branch: int, n: int) -> Qrt3:
    """Coefficient of sqrt(3)*xi+(L) + branch*xi-(L) at n, branch = +-1."""
    plus = series[(lattice, "+")].coeff(n)
    minus = series[(lattice, "-")].coeff(n)
    return Qrt3(branch * minus, plus)


def euler_product_check(series: dict | None = None) -> CheckReport:
    """c_1 * c_15 != c_3 * c_5 in Z[sqrt(3)] for each of the twenty combinations
    sqrt(3)*xi+ +- xi-, ruling out an Euler product with multiplicative c_n."""
    if series is None:
        series = build_all_series(15)
    failures = []
    for lattice in range(1, 11):
        for branch in (1, -1):
            c1 = _combo_coeff(series, lattice, branch, 1)
            c3 = _combo_coeff(series, lattice, branch, 3)
            c5 = _combo_coeff(series, lattice, branch, 5)
            c15 = _combo_coeff(series, lattice, branch, 15)
            lhs = c1 * c15
            rhs = c3 * c5
            tag = f"L{lattice}, sqrt(3)*xi+ {'+' if branch == 1 else '-'} xi-"
            if lhs == rhs:
                failures.append(f"{tag}: c1*c15 = c3*c5 = {lhs} (multiplicative!)")
    return _report("no Euler product (c1*c15 != c3*c5, all 20 combos)", failures)


LAMBDA_BASE_LATTICES = (1, 7, 9)


def lambda_coefficient_identity(max_n: int = 300, series: dict | None = None) -> CheckReport:
    """sqrt(3)*xi+(L_{i+1}) +- xi-(L_{i+1}) = +-sqrt(3)*(sqrt(3)*xi+(L_i) +- xi-(L_i))
    coefficientwise, for i in {1, 7, 9}.  Its rational part is 3 xi+(L_i) =
    xi-(L_{i+1}) and its sqrt(3) part xi-(L_i) = xi+(L_{i+1}), the two
    relations of (L_i, L_{i+1}): it fails where either does in their
    comparison (_relation_comparisons), whose 3 a_n render each failure."""
    relations = _relation_comparisons(max_n, series)
    failures = []
    for i in LAMBDA_BASE_LATTICES:
        (_, minus0, plus1, bad0), (_, plus0_x3, minus1, bad1) = next(relations), next(relations)
        bad = sorted({*bad0, *bad1})
        for branch in (1, -1):
            scal = Qrt3(Fraction(0), Fraction(branch))  # +- sqrt(3)
            for n in bad:
                # sqrt(3)*xi+ + branch*xi- at n, of L_{i+1} and of L_i
                lhs = Qrt3(branch * Fraction(int(minus1[n]), 3), Fraction(int(plus1[n]), 3))
                base = Qrt3(branch * Fraction(int(minus0[n]), 3), Fraction(int(plus0_x3[n]), 9))
                failures.append(f"i={i}, branch={branch:+d}, n={n}: {lhs} != {scal * base}")
    return _report(
        f"sqrt(3)-twisted coefficient identity (i in 1,7,9; n <= {max_n})", failures
    )
