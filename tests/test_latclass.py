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
from cubicforms.latclass import (
    _all_subspaces,
    _det4,
    _index_in,
    _solve4,
    dual_basis,
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


def test_dual_basis_is_dual():
    for lattice in (1, 2, 3, 5, 7, 9):
        basis = lattice_basis(lattice)
        dual = dual_basis(lattice)
        for i, x in enumerate(basis):
            for j, y in enumerate(dual):
                assert pairing(x, y) == (1 if i == j else 0)


def test_dual_determinant_inverse():
    for lattice in (1, 3, 5, 7, 9):
        d = abs(_det4(lattice_basis(lattice)))
        dd = abs(_det4(dual_basis(lattice)))
        # pairing matrix has determinant 1/9, so det(dual) = 9 / det(basis)
        assert d * dd == 9


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
    """Seeded 4x4 matrices: integer entries in [-3, 3] (some singular) and
    Fractions with denominators 1, 2, 3, 6, as in the dual and halved bases."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            yield [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        else:
            yield [
                [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6))) for _ in range(4)]
                for _ in range(4)
            ]


def _leibniz_det(m) -> Fraction:
    total = Fraction(0)
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_det4_matches_leibniz_formula():
    dets = [(_det4(m), _leibniz_det(m)) for m in _random_matrices(1)]
    assert all(got == want for got, want in dets)
    assert any(want == 0 for _, want in dets)  # singular matrices were drawn


def test_solve4_solutions_are_exact():
    rng = random.Random(2)
    solved = 0
    for rows in _random_matrices(3):
        rhs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6))) for _ in range(4)]
        if _leibniz_det(rows) == 0:
            with pytest.raises(ValueError, match="not a basis"):
                _solve4(rows, rhs)
            continue
        x = _solve4(rows, rhs)
        assert [sum(x[j] * rows[j][i] for j in range(4)) for i in range(4)] == rhs
        solved += 1
    assert solved > 200


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
