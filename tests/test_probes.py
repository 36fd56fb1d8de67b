"""Seeded probes of the master columns.

The identities compare series with series, so a defect that hits both sides
of a relation alike (a wrong stabilizer order or lattice membership on one
row) passes them.  A probe draws a form with 1 <= |P| <= Y, scatters it by a
random word in u(1), u(-1) and w, and reduces it with the scalar
canonical_reduce: the representative must be a master row, found by binary
search in its block's own key, and that row's disc, stab, irred and member
must equal the scalar discriminant, stabilizer_order, is_irreducible and
lattice_membership of the scattered form (all four are orbit invariants).
Boundary probes draw their forms from the edges of the strata instead.
"""

import random

import numpy as np
import pytest

from cubicforms import enumeration, master_classes
from cubicforms.forms import (
    U1,
    U1_INV,
    W,
    act,
    discriminant,
    hessian,
    is_irreducible,
    lattice_member,
    lattice_membership,
)
from cubicforms.reduction import _in_open_domain, _lex_less, canonical_reduce, stabilizer_order

PROBES = 1000  # per master: 2000 over the two
WORD = 20  # letters of each scattering word


def _product(rng, k: int) -> tuple:
    """(q u - p v)(A u^2 + B u v + C v^2) with coefficients in [-k, k]."""
    p, q, A, B, C = (rng.randint(-k, k) for _ in range(5))
    return (q * A, q * B - p * A, q * C - p * B, -p * C)


def _scatter(rng, f: tuple) -> tuple:
    """f moved by a random word of WORD letters in u(1), u(-1) and w."""
    for _ in range(WORD):
        f = act(rng.choice((U1, U1_INV, W)), f)
    return tuple(f)


def _probe_forms(seed: int, limit: int, sublattice: int, count: int = PROBES) -> list:
    """count forms with 1 <= |P| <= limit in the sublattice (L1, or L2 =
    {3 | x2, x3}), half small random forms and half reducible products
    (_product), each scattered by a random word of WORD letters."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        if len(forms) % 2:
            f = _product(rng, 6)
        else:
            f = tuple(rng.randint(-9, 9) for _ in range(4))
        if not 1 <= abs(discriminant(f)) <= limit or not lattice_member(f, sublattice):
            continue
        forms.append(_scatter(rng, f))
    return forms


def _boundary_forms(seed: int, limit: int, sublattice: int, count: int) -> dict:
    """Up to count forms of each boundary of the strata, drawn from the box
    [-9, 9]^4 (b, c in 3Z for L2), with 1 <= |P| <= limit: P > 0 forms with
    weakly reduced Hessian (|B| <= A <= C) and A = C, or B = -A; and P < 0
    forms with x1 > 0 on either side of s2 = 1.  With q = d^2 - b d + a c -
    a^2, s2 > 1 iff d != 0 and q > 0 (reduction._s2_above_one), and q = 0
    makes -d/a the real root, so an irreducible form has q >= 1: 's2 edge'
    holds the root-reduced forms with q = 1, the first rows past the s2 cut
    of the windows, and 's2 = 1' the forms with q = 0, d != 0, all
    reducible.  name -> (forms, each scattered by a random word)."""
    rng = random.Random(seed)
    side = np.arange(-9, 10, dtype=np.int64)
    bc = side[side % (3 if sublattice == 2 else 1) == 0]
    cols = tuple(g.ravel() for g in np.meshgrid(side, bc, bc, side, indexing="ij"))
    a, b, c, d = cols
    p = discriminant(cols)
    A, B, C = hessian(cols)
    q = d * d - b * d + a * c - a * a
    pos = (p >= 1) & (p <= limit) & (np.abs(B) <= A) & (A <= C)
    neg = (p <= -1) & (p >= -limit) & (a > 0) & (d != 0)
    edges = {
        "A = C": pos & (A == C),
        "B = -A": pos & (B == -A),
        "s2 edge": neg & (q == 1) & _in_open_domain(cols),
        "s2 = 1": neg & (q == 0),
    }
    rows = np.stack(cols, axis=1)
    drawn = {}
    for name, on_edge in edges.items():
        forms = [tuple(f) for f in rows[on_edge].tolist()]
        forms = rng.sample(forms, min(count, len(forms)))
        drawn[name] = (forms, [_scatter(rng, f) for f in forms])
    return drawn


def _blocks(master) -> dict:
    """kind -> (start, end) of each stratum's block: the P > 0 rows, then
    the irreducible P < 0 rows (x4 != 0, since x4 = 0 gives the root
    (1 : 0)), then the reducible (p, q, r, 0)."""
    neg = np.flatnonzero(master.disc < 0)
    start = neg[0] if len(neg) else len(master)
    rd = start + np.flatnonzero(master.reps[start:, 3] == 0)
    end = rd[0] if len(rd) else len(master)
    assert (master.disc[:start] > 0).all() and (master.disc[start:] < 0).all()
    assert (master.reps[start:end, 3] != 0).all() and (master.reps[end:, 3] == 0).all()
    return {"pos": (0, start), "negird": (start, end), "negrd": (end, len(master))}


def _kind(rep: tuple) -> str:
    if discriminant(rep) > 0:
        return "pos"
    return "negrd" if rep[3] == 0 else "negird"


def _find_rows(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The index in keys (rows in strictly increasing lexicographic order)
    of each probe row, -1 where it is missing: one binary search for all
    probes at once, in reduction._lex_less."""
    n = len(keys)
    lo = np.zeros(len(probes), dtype=np.int64)
    hi = np.full(len(probes), n, dtype=np.int64)
    while (lo < hi).any():
        active = lo < hi
        mid = (lo + hi) // 2
        less = _lex_less(keys[np.minimum(mid, n - 1)], probes)
        lo = np.where(active & less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)
    at = np.minimum(lo, n - 1)
    found = (lo < n) & (keys[at] == probes).all(axis=1)
    return np.where(found, lo, -1)


def _master_rows(master, reps: list) -> np.ndarray:
    """The master row of each representative, -1 where it is missing: a
    binary search in the block of its kind, in that block's key."""
    rows = np.full(len(reps), -1, dtype=np.int64)
    for kind, (start, end) in _blocks(master).items():
        mine = [i for i, rep in enumerate(reps) if _kind(rep) == kind]
        if mine:
            key = enumeration._BLOCK_KEYS[kind]
            probes = np.array([reps[i] for i in mine], dtype=np.int64)
            found = _find_rows(master.reps[start:end, key], probes[:, key])
            rows[mine] = np.where(found >= 0, start + found, -1)
    return rows


def _probe(master, forms: list, reps: list) -> list:
    """The probes whose representative (canonical_reduce, given as reps) is
    missing from the master or whose row disagrees with the scalar
    functions, with what disagreed."""
    rows = _master_rows(master, reps)
    at = np.maximum(rows, 0)
    columns = zip(
        master.reps[at].tolist(), master.disc[at].tolist(), master.stab[at].tolist(),
        master.irred[at].tolist(), master.member[at].tolist(),
    )
    bad = []
    for f, rep, row, got in zip(forms, reps, rows.tolist(), columns):
        want = (
            list(rep), discriminant(f), stabilizer_order(f), is_irreducible(f),
            lattice_membership(f).tolist(),
        )
        if row < 0 or got != want:
            bad.append((f, row, got, want))
    return bad


@pytest.fixture(scope="module", params=[(10 ** 6, 1), (10 ** 7, 2)], ids=["L1-1e6", "L2-1e7"])
def probed(request):
    """(limit, sublattice, master), a master of the module's own."""
    limit, sublattice = request.param
    return limit, sublattice, master_classes(limit, sublattice=sublattice)


def test_seeded_probes_land_on_master_rows(probed):
    limit, sublattice, master = probed
    forms = _probe_forms(limit + sublattice, limit, sublattice)
    reps = [tuple(canonical_reduce(f)) for f in forms]
    assert _probe(master, forms, reps) == []
    # the probes reach every kind of row the columns distinguish
    assert {_kind(rep) for rep in reps} == {"pos", "negird", "negrd"}
    assert any(stabilizer_order(f) == 3 for f in forms)
    in_lattice = lattice_membership(np.array(reps, dtype=np.int64).T).any(axis=0)
    assert in_lattice[sublattice - 1 :: 2].all()  # every odd (L1) or even (L2) lattice


def test_probes_see_one_corrupted_row(probed):
    # a wrong stab, or a residue row with another membership, on the row of
    # one probe; nothing else changes
    limit, sublattice, master = probed
    forms = _probe_forms(limit + sublattice, limit, sublattice, 100)
    reps = [tuple(canonical_reduce(f)) for f in forms]
    row = int(_master_rows(master, reps[:1])[0])
    member = lattice_membership(reps[0])
    other_res = 0 if not member.all() else 1  # residue row 1, (0, 0, 0, 1), is not in L5
    assert member.tolist() != lattice_membership((0, 0, 0, other_res)).tolist()
    for column, wrong in (("stab", 4 - master.stab[row]), ("res", other_res)):
        col = getattr(master, column)
        saved = col[row]
        col[row] = wrong
        try:
            assert _probe(master, forms, reps), column
        finally:
            col[row] = saved


def test_boundary_probes_land_on_master_rows(probed):
    # the forms on the edges of the strata, scattered: the A = C rows (the
    # ones _canonical_pos decides), B = -A, and both sides of s2 = 1
    limit, sublattice, master = probed
    drawn = _boundary_forms(limit + sublattice, limit, sublattice, 25)
    forms = [f for _, scattered in drawn.values() for f in scattered]
    reps = [tuple(canonical_reduce(f)) for f in forms]
    assert _probe(master, forms, reps) == []  # one probe for all: _blocks reads the master
    kinds = {}
    for name, (edge, scattered) in drawn.items():
        assert len(scattered) >= 10, name
        mine, reps = reps[: len(edge)], reps[len(edge) :]
        kinds[name] = {_kind(rep) for rep in mine}
        if name == "s2 edge":  # in the open domain: each is its own representative
            assert mine == edge
            assert all(is_irreducible(f) for f in edge)
    assert kinds == {"A = C": {"pos"}, "B = -A": {"pos"}, "s2 edge": {"negird"}, "s2 = 1": {"negrd"}}
