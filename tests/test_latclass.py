import itertools
import random
from fractions import Fraction

import pytest

from cubicforms import forms, latclass
from cubicforms import (
    invariant_subspaces_mod_p,
    lattice_member,
    pairing,
    verify_classification,
    verify_indices_and_duality,
)
from cubicforms.forms import bareiss
from cubicforms.latclass import (
    _all_subspaces,
    _det4,
    _index_in,
    _is_dual,
    _is_member_by_basis,
    lattice_basis,
)


def test_invariant_subspace_counts():
    assert len(invariant_subspaces_mod_p(2)) == 6
    assert len(invariant_subspaces_mod_p(3)) == 3
    assert len(invariant_subspaces_mod_p(5)) == 2
    assert len(invariant_subspaces_mod_p(7)) == 2


def test_invariant_subspaces_need_a_prime():
    # Z/p is no field for composite p (4, 6 and 9 each gave 2 "subspaces"),
    # and p <= 1 has no nonzero residue to eliminate with
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="must be prime"):
            invariant_subspaces_mod_p(p)


def test_invariant_subspace_dims_mod_2():
    dims = sorted(s.dim for s in invariant_subspaces_mod_p(2))
    assert dims == [0, 1, 2, 2, 3, 4]


def test_dim1_space_lifts_into_l5():
    subs = [s for s in invariant_subspaces_mod_p(2) if s.dim == 1]
    assert len(subs) == 1
    assert subs[0].contains((0, 1, 1, 0))
    assert lattice_member((0, 1, 1, 0), 5)


def test_mod3_middle_space_is_l2():
    subs = [s for s in invariant_subspaces_mod_p(3) if 0 < s.dim < 4]
    assert len(subs) == 1
    elements = subs[0].elements()
    want = {
        v
        for v in itertools.product(range(3), repeat=4)
        if lattice_member(v, 2)
    }
    assert elements == want


def test_dim2_spaces_distinguished_by_l7_l9():
    subs = [s for s in invariant_subspaces_mod_p(2) if s.dim == 2]
    assert len(subs) == 2
    tags = set()
    for s in subs:
        if all(s.contains(tuple(x % 2 for x in v)) for v in lattice_basis(7)):
            tags.add(7)
        if all(s.contains(tuple(x % 2 for x in v)) for v in lattice_basis(9)):
            tags.add(9)
    assert tags == {7, 9}


def test_verify_classification():
    rep = verify_classification()
    assert rep.passed, str(rep)


def test_index_examples():
    assert _index_in(1, 3) == 2
    assert _index_in(1, 5) == 8
    assert _index_in(1, 7) == 4
    assert _index_in(1, 9) == 4
    assert _index_in(3, 9) == 2
    assert _index_in(7, 5) == 2
    assert _index_in(3, 5) == 4


def test_chain_index_multiplicativity():
    assert _index_in(1, 3) * _index_in(3, 9) == _index_in(1, 9)
    assert _index_in(1, 7) * _index_in(7, 5) == _index_in(1, 5)


def test_basis_matches_congruence_membership():
    for lattice in range(1, 11):
        basis = lattice_basis(lattice)
        for v in basis:
            assert lattice_member(v, lattice), (lattice, v)
        # integer combinations stay in the lattice
        combo = tuple(
            sum(k * b[i] for k, b in zip((1, -2, 3, 1), basis)) for i in range(4)
        )
        assert lattice_member(combo, lattice)


def test_duality_pairing_example():
    # the L5/L6 duality pair: pairing of (0,1,1,0) with (1/2)(0,3,3,0)
    val = pairing((0, 1, 1, 0), (Fraction(0), Fraction(3, 2), Fraction(3, 2), Fraction(0)))
    assert val.denominator == 1


def _halved(basis) -> list:
    return [[Fraction(x, 2) for x in v] for v in basis]


def test_is_dual_on_the_checked_pairs():
    for i in (3, 5, 7, 9):
        assert _is_dual(lattice_basis(i), _halved(lattice_basis(i + 1))), i
    assert _is_dual(lattice_basis(1), lattice_basis(2))
    assert _is_dual(lattice_basis(2), lattice_basis(1))


def test_is_dual_rejects_mutants():
    # one vector of (1/2) L4 doubled: still inside dual(L3), of index 2
    half = _halved(lattice_basis(4))
    half[0] = [2 * x for x in half[0]]
    assert not _is_dual(lattice_basis(3), half)
    # L1 against itself: <e2, e3> = -1/3.  The numerators of its pairing
    # matrix have determinant 1, so only the integrality test rejects it
    assert not _is_dual(lattice_basis(1), lattice_basis(1))


def test_mutated_lattice_basis_fails_duality_check(monkeypatch):
    basis_of = latclass.lattice_basis

    def mutated(lattice):
        basis = basis_of(lattice)
        if lattice == 6:
            return (tuple(2 * x for x in basis[0]),) + basis[1:]
        return basis

    monkeypatch.setattr(latclass, "lattice_basis", mutated)
    rep = verify_indices_and_duality()
    assert not rep.passed
    duals = [d for d in rep.details if d.startswith("dual of")]
    assert duals == ["dual of L5 is not (1/2) L6"]


def test_membership_by_basis_matches_the_table():
    # Cramer's rule on the bases against the residue table mod 6
    for lattice in range(1, 11):
        for v in itertools.product(range(-3, 4), repeat=4):
            assert _is_member_by_basis(lattice, v) == lattice_member(v, lattice), (lattice, v)


def test_verify_indices_and_duality():
    rep = verify_indices_and_duality()
    assert rep.passed, str(rep)


def test_mutated_congruence_fails_indices_check(monkeypatch):
    odd_congruences = latclass._odd_congruences

    def mutated(a, b, c, d):
        out = odd_congruences(a, b, c, d)
        out[7] = ((a + b + c) % 2 == 0) & ((a + c + d) % 2 == 0)  # was b + c + d
        return out

    monkeypatch.setattr(latclass, "_odd_congruences", mutated)
    rep = verify_indices_and_duality()
    assert not rep.passed
    assert any("L7: basis and congruence membership disagree" in d for d in rep.details)


@pytest.mark.parametrize(
    "lattice, row, vector, message",
    [
        # same determinant, another lattice: the residue table moves
        (7, 0, (1, 1, 1, 0), "L7: basis and congruence membership disagree"),
        # same residues mod 6, but 6 Z^4 is no longer inside
        (1, 0, (7, 0, 0, 0), "L1: 6 e1 is not in the lattice"),
    ],
)
def test_mutated_basis_fails_indices_check(monkeypatch, lattice, row, vector, message):
    bases = dict(forms._ODD_BASES)
    rows = list(bases[lattice])
    rows[row] = vector
    bases[lattice] = tuple(rows)
    monkeypatch.setattr(forms, "_ODD_BASES", bases)
    # the table is built from the bases at import; build it from the mutant
    monkeypatch.setattr(forms, "_MEMBERSHIP", forms._membership_table())
    rep = verify_indices_and_duality()
    assert not rep.passed
    assert any(message in d for d in rep.details)


@pytest.mark.parametrize(
    "lattice, row, vector, message",
    [
        # L7 and L10 leave the invariant lattices: two glued choices match none
        (7, 0, (1, 1, 1, 0), "lattices not produced by gluing: [7, 10]"),
        # L9 becomes L3 (and L8 becomes L6): a glued choice matches both
        (9, 2, (1, 0, 0, 0), "glued subspace (dim2=3, dim3=4) matches lattices [3, 9]"),
    ],
)
def test_mutated_basis_fails_classification(monkeypatch, lattice, row, vector, message):
    bases = dict(forms._ODD_BASES)
    rows = list(bases[lattice])
    rows[row] = vector
    bases[lattice] = tuple(rows)
    monkeypatch.setattr(forms, "_ODD_BASES", bases)
    monkeypatch.setattr(forms, "_MEMBERSHIP", forms._membership_table())
    rep = verify_classification()
    assert not rep.passed
    assert message in rep.details


def _random_matrices(seed: int, count: int = 300):
    """Seeded 4x4 integer matrices with entries in [-3, 3], some singular."""
    rng = random.Random(seed)
    for _ in range(count):
        yield [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]


def _leibniz_det(m) -> int:
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_det4_matches_leibniz_formula():
    dets = [(_det4(m), _leibniz_det(m)) for m in _random_matrices(1)]
    assert all(type(got) is int and got == want for got, want in dets)
    assert any(want == 0 for _, want in dets)  # singular matrices were drawn


def test_bareiss_pivots_skip_columns_without_a_pivot():
    # rows C B with B in echelon form (leading entries at chosen columns,
    # the others skipped) and I_k among the rows of C: the row space is B's,
    # so its pivot columns are B's leading columns
    rng = random.Random(4)
    for _ in range(200):
        width, k = rng.randint(1, 8), rng.randint(0, 5)
        lead = sorted(rng.sample(range(width), min(k, width)))
        basis = [[0] * c + [rng.choice((-3, -2, -1, 1, 2, 3))]
                 + [rng.randint(-4, 4) for _ in range(width - c - 1)] for c in lead]
        coeffs = [[int(i == j) for j in range(len(lead))] for i in range(len(lead))]
        coeffs += [[rng.randint(-3, 3) for _ in lead] for _ in range(rng.randint(0, 4))]
        rng.shuffle(coeffs)
        rows = [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(width)]
                for cs in coeffs]
        assert bareiss(rows)[0] == lead, rows


@pytest.mark.parametrize("entry", [1.0, Fraction(1), Fraction(1, 2)])
def test_bareiss_rejects_non_integer_entries(entry):
    rows = [[1, 0], [0, 1]]
    rows[1][1] = entry
    with pytest.raises(TypeError):
        bareiss(rows)


@pytest.mark.parametrize("p", [2, 3])
def test_subspace_elements_match_nested_loops(p):
    space = list(itertools.product(range(p), repeat=4))
    for sub in _all_subspaces(p):
        want = {
            tuple(sum(c * row[i] for c, row in zip(coeffs, sub.basis)) % p for i in range(4))
            for coeffs in itertools.product(range(p), repeat=sub.dim)
        }
        assert sub.elements() == want
        assert all(isinstance(x, int) for v in want for x in v)
        assert [sub.contains(v) for v in space] == [v in want for v in space]
