"""Classification of the SL2(Z)-invariant lattices between N*Z^4 and Z^4.

The action of SL2(Z) on coefficient vectors reduces mod p to an action of the
matrices u(1) = (1 1; 0 1) and w = (0 1; -1 0), which generate.  Invariant
sublattices of Z^4 containing N*Z^4 correspond to invariant subspaces of
F_p^4 for the primes p | N; enumerating those exhaustively and gluing by CRT
recovers exactly the ten lattices L1..L10.

The lattices are defined by their Z-bases in `forms`; the CRT gluing and the
congruences written here are checks on them.  A subspace's elements are the
residue array forms.residue_span of its basis, the one span mod m that also
builds the membership table; the gluing compares boolean masks over
(Z/6)^4 with the columns of that table.  Every determinant comes from the
one fraction-free elimination over Z, forms.bareiss: the indices are
ratios of determinants, membership by basis is Cramer's rule, and a
duality is a pairing matrix that is integral with determinant +-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .forms import (EVEN_PARTNER, U1, W, action_matrix, bareiss, lattice_basis,
                    lattice_membership, pairing, residue_grid, residue_span)
from .series import CheckReport, _report

_DIM = 4


# ---------------------------------------------------------------------------
# subspaces of F_p^4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModpSubspace:
    """Subspace of F_p^4 in reduced row echelon form."""

    p: int
    basis: tuple  # tuple of 4-tuples, RREF rows; empty for the zero space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        rows = np.array(self.basis, dtype=np.int64).reshape(-1, _DIM)
        pivots = (rows % self.p != 0).argmax(axis=1)  # each row's leading column
        return bool(_in_span(self.p, pivots, rows, np.array(v, dtype=np.int64)))

    def _span(self) -> np.ndarray:
        # the basis padded with zero rows to the four rows residue_span takes
        return residue_span(self.basis + ((0,) * _DIM,) * (_DIM - self.dim), self.p)

    def elements(self) -> set:
        return set(map(tuple, self._span().tolist()))

    def mask(self, grid: np.ndarray) -> np.ndarray:
        """Whether each coefficient column of grid lies in the subspace mod p."""
        table = np.zeros((self.p,) * _DIM, dtype=bool)
        table[tuple(self._span().T)] = True
        return table[tuple(grid % self.p)]


def _in_span(p: int, pivots, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether the vectors v (..., 4) lie in the span mod p of the RREF rows
    (..., d, 4) with these pivot columns.  Row k has 1 at its own pivot and 0
    at the others, so the only candidate in the span is sum_k v[pivot_k] row_k,
    and v lies in the span iff v minus it vanishes mod p."""
    return ((v - v[..., pivots] @ rows) % p == 0).all(axis=-1)


def _pivot_patterns(p: int):
    """For each pivot tuple of a nonzero subspace of F_p^4: (pivots, rows),
    rows the (n, d, 4) int64 array of every RREF basis with those pivots
    (1 at each pivot, 0 above and below it, free entries right of it)."""
    for d in range(1, _DIM + 1):
        for pivots in itertools.combinations(range(_DIM), d):
            free = [
                (i, j) for i in range(d) for j in range(_DIM) if j > pivots[i] and j not in pivots
            ]
            fills = np.array(list(itertools.product(range(p), repeat=len(free))), dtype=np.int64)
            rows = np.zeros((p ** len(free), d, _DIM), dtype=np.int64)
            rows[:, range(d), pivots] = 1
            for k, (i, j) in enumerate(free):
                rows[:, i, j] = fills[:, k]
            yield pivots, rows


def _subspace(p: int, rows: np.ndarray) -> ModpSubspace:
    return ModpSubspace(p, tuple(map(tuple, rows.tolist())))


def _all_subspaces(p: int):
    """All subspaces of F_p^4 as RREF bases (including 0 and the full space)."""
    yield ModpSubspace(p, ())
    for _, rows in _pivot_patterns(p):
        yield from (_subspace(p, r) for r in rows)


def invariant_subspaces_mod_p(p: int) -> list:
    """All subspaces of F_p^4 invariant under the reduced SL2(Z)-action,
    ordered by (dimension, basis).  p must be prime: Z/p is a field only then.
    The bases of one pivot pattern are tested together: a subspace is
    invariant iff the images M v of its basis rows v (the rows of B M^T) lie
    in its span (_in_span)."""
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be prime; got {p}")
    mats = [np.array(action_matrix(g), dtype=np.int64) % p for g in (U1, W)]
    out = [ModpSubspace(p, ())]  # the zero space
    for pivots, rows in _pivot_patterns(p):
        keep = np.ones(len(rows), dtype=bool)
        for m in mats:
            keep &= _in_span(p, pivots, rows, rows @ m.T % p).all(axis=-1)
        out.extend(_subspace(p, r) for r in rows[keep])
    out.sort(key=lambda s: (s.dim, s.basis))
    return out


# ---------------------------------------------------------------------------
# classification: gluing invariant subspaces into the ten lattices
# ---------------------------------------------------------------------------

_EXPECTED_COUNTS = {2: 6, 3: 3, 5: 2, 7: 2}


def verify_classification() -> CheckReport:
    """Counts of invariant subspaces per prime, and the CRT gluing: proper
    invariant subspaces mod 2 (times the two choices mod 3) give exactly the
    ten lattices."""
    failures = []
    details = []
    subs = {}
    for p, want in _EXPECTED_COUNTS.items():
        subs[p] = invariant_subspaces_mod_p(p)
        got = len(subs[p])
        details.append(f"p={p}: {got} invariant subspaces")
        if got != want:
            failures.append(f"p={p}: expected {want} invariant subspaces, got {got}")

    # mod 3 the proper invariant subspace must be the residue set of L2
    grid3 = residue_grid(3)
    proper3 = [s for s in subs.get(3, []) if 0 < s.dim < _DIM]
    if len(proper3) != 1 or not np.array_equal(
        proper3[0].mask(grid3), lattice_membership(grid3)[:, 1]
    ):
        failures.append("mod-3 proper invariant subspace does not match L2")

    # glue: 5 invariant subspaces mod 2 excluding the zero space (which would
    # rescale the lattice at 2), times {full, L2-slice} mod 3 -> ten lattices;
    # a glued choice is a mask over (Z/6)^4, a lattice is a membership column
    if not failures:
        choices2 = [s for s in subs[2] if s.dim > 0]
        choices3 = [s for s in subs[3] if s.dim in (2, _DIM)]
        grid6 = residue_grid(6)
        member6 = lattice_membership(grid6)
        found = set()
        for s2 in choices2:
            mask2 = s2.mask(grid6)
            for s3 in choices3:
                glued = mask2 & s3.mask(grid6)
                matches = [
                    lat for lat in range(1, 11) if np.array_equal(member6[:, lat - 1], glued)
                ]
                if len(matches) != 1:
                    failures.append(
                        f"glued subspace (dim2={s2.dim}, dim3={s3.dim}) matches "
                        f"lattices {matches}"
                    )
                else:
                    found.add(matches[0])
        missing = sorted(set(range(1, 11)) - found)
        if missing:
            failures.append(f"lattices not produced by gluing: {missing}")
        else:
            details.append("CRT gluing produces each of L1..L10 exactly once")
    return _report("invariant-subspace classification", failures, details)


# ---------------------------------------------------------------------------
# indices and duality
# ---------------------------------------------------------------------------


def _odd_congruences(a, b, c, d) -> dict:
    """The congruences of L1, L3, L5, L7, L9, columnwise: the check on the
    bases."""
    l3 = (b + c) % 2 == 0
    return {
        1: np.ones_like(l3),
        3: l3,
        5: (a % 2 == 0) & (d % 2 == 0) & l3,
        7: ((a + b + c) % 2 == 0) & ((b + c + d) % 2 == 0),
        9: ((a + b + d) % 2 == 0) & ((a + c + d) % 2 == 0),
    }


def _congruence_membership(a, b, c, d) -> np.ndarray:
    """(N, 10) membership in L1..L10 by congruences: an even lattice requires
    3 | x2, x3 and its odd partner's congruences on (x1, x2/3, x3/3, x4)."""
    odd = _odd_congruences(a, b, c, d)
    divided = _odd_congruences(a, b // 3, c // 3, d)
    in_l2 = (b % 3 == 0) & (c % 3 == 0)
    columns = [
        in_l2 & divided[EVEN_PARTNER[i]] if i in EVEN_PARTNER else odd[i]
        for i in range(1, 11)
    ]
    return np.stack(columns, axis=1)


def _det4(rows) -> int:
    return bareiss(rows)[1]


def _index_in(sup: int, sub: int) -> Fraction:
    """[sup : sub] for nested lattices given by bases (ratio of determinants)."""
    return Fraction(abs(_det4(lattice_basis(sub))), abs(_det4(lattice_basis(sup))))


def _is_member_by_basis(lattice: int, v) -> bool:
    """Whether v is an integer combination of the basis rows.  By Cramer's
    rule its j-th coordinate is det(basis with row j replaced by v) / det."""
    basis = lattice_basis(lattice)
    det = _det4(basis)
    return all(_det4(basis[:j] + (tuple(v),) + basis[j + 1:]) % det == 0 for j in range(4))


def _is_dual(basis, other) -> bool:
    """Whether `other` spans the dual of the lattice that `basis` spans,
    under the alternating pairing.  The pairing matrix G = (<x, y>) is
    integral iff other lies in the dual; then G holds the coordinates of
    other in the dual basis, so other spans all of it iff det G = +-1."""
    gram = [[pairing(x, y) for y in other] for x in basis]
    if any(g.denominator != 1 for row in gram for g in row):
        return False
    return abs(_det4([[g.numerator for g in row] for row in gram])) == 1


def verify_indices_and_duality() -> CheckReport:
    failures = []
    details = []

    # The table (built from the bases) agrees with the congruences mod 6, and
    # 6 Z^4 lies in each lattice.  Both definitions then repeat mod 6, so
    # they agree on all of Z^4.
    residues = residue_grid(6)
    agree = lattice_membership(residues) == _congruence_membership(*residues)
    for lattice in range(1, 11):
        bad = np.flatnonzero(~agree[:, lattice - 1])
        if len(bad):
            v = tuple(int(x) for x in residues[:, bad[0]])
            failures.append(f"L{lattice}: basis and congruence membership disagree at {v}")
        for k in range(4):
            if not _is_member_by_basis(lattice, [6 * (j == k) for j in range(4)]):
                failures.append(f"L{lattice}: 6 e{k + 1} is not in the lattice")

    # indices in L1: 2^(0,1,3,2,2) for i=1,3,5,7,9; even ones are 9x larger
    want_b = {1: 0, 3: 1, 5: 3, 7: 2, 9: 2}
    for i, b in want_b.items():
        got = _index_in(1, i)
        if got != 2 ** b:
            failures.append(f"[L1:L{i}] = {got}, expected {2 ** b}")
    for even, odd in EVEN_PARTNER.items():
        got_even = _index_in(1, even)
        want = 9 * 2 ** want_b[odd]
        if got_even != want:
            failures.append(f"[L1:L{even}] = {got_even}, expected {want}")
    details.append("[L1:L_i] = 2^b_i with b = (0,1,3,2,2) for i = 1,3,5,7,9")

    # chain indices
    chain_checks = (
        ((1, 3), 2),
        ((3, 9), 2),
        ((7, 5), 2),
        ((1, 7), 4),
        ((3, 5), 4),
        ((1, 9), 4),
    )
    for (sup, sub), want in chain_checks:
        got = _index_in(sup, sub)
        if got != want:
            failures.append(f"[L{sup}:L{sub}] = {got}, expected {want}")
    # [L5 : 2 L1] = 2 and [L9 : 2 L1] = 4: det(2 L1) = 16
    for lat, want in ((5, 2), (9, 4)):
        got = Fraction(16, abs(_det4(lattice_basis(lat))))
        if got != want:
            failures.append(f"[L{lat}:2L1] = {got}, expected {want}")

    # duality: dual of L_i is (1/2) L_{i+1} for i = 3, 5, 7, 9
    for i in (3, 5, 7, 9):
        half_even = [[Fraction(x, 2) for x in v] for v in lattice_basis(i + 1)]
        if not _is_dual(lattice_basis(i), half_even):
            failures.append(f"dual of L{i} is not (1/2) L{i + 1}")
    details.append("dual(L_i) = (1/2) L_{i+1} for i = 3, 5, 7, 9")

    # duality of the base pair: dual of L1 is L2 (no halving)
    if not _is_dual(lattice_basis(1), lattice_basis(2)):
        failures.append("dual of L1 is not L2")
    if not _is_dual(lattice_basis(2), lattice_basis(1)):
        failures.append("dual of L2 is not L1")
    details.append("dual(L1) = L2 and dual(L2) = L1")

    return _report("lattice indices and duality", failures, details)
