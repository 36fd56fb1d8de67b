"""Canonical orbit representatives, orbit search and stabilizer orders.

Reduction strategy, by sign of the discriminant P:

* P > 0: the Hessian covariant is positive definite (disc = -3P < 0).  Reduce
  it to |B| <= A <= C by classical Gauss reduction, pulling the substitutions
  back to the cubic.  The forms in one orbit whose Hessian is weakly reduced
  differ by one of the 20 determinant-one matrices with entries in {-1,0,1};
  the canonical representative is the lexicographically least of those images
  that are themselves weakly reduced.

* P < 0, irreducible: the dehomogenized cubic has one real and two complex
  roots.  Move the upper-half-plane root into the standard fundamental domain
  |Re z| <= 1/2, |z| >= 1 of SL2(Z) and normalize the leading coefficient
  positive.  An irreducible form can never land on the domain boundary (that
  would force a rational relation on the roots), so each orbit contains
  exactly one representative with the root strictly inside and x1 > 0.
  Membership in the open domain is decided by exact integer sign tests.

* P < 0, reducible: the form has exactly one rational root; moving that root
  to (0:1) gives a presentation (p, q, r, 0) = u * (p u^2 + q u v + r v^2)
  with r != 0.  Normalizing r > 0 and 0 <= q < 2r is a bijection onto orbits.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from .forms import (
    CubicForm,
    UnimodularMatrix,
    U1,
    U1_INV,
    W,
    act,
    action_matrix,
    discriminant,
    hessian,
    is_irreducible,
    rational_roots,
    value_at,
)

# All determinant +1 matrices with entries in {-1, 0, 1} (20 of them).  Two
# weakly Hessian-reduced forms in one orbit always differ by one of these.
SMALL_MATRICES = tuple(
    UnimodularMatrix(*g)
    for g in itertools.product((-1, 0, 1), repeat=4)
    if g[0] * g[3] - g[1] * g[2] == 1
)

# Lower-triangular unipotent: fixes the Hessian's A and shifts B by 2*alpha*A.
def _n_of(alpha: int) -> UnimodularMatrix:
    return UnimodularMatrix(1, 0, alpha, 1)


def _weakly_reduced(f) -> bool:
    A, B, C = hessian(f)
    return A > 0 and abs(B) <= A <= C


def _canonical_pos(f: CubicForm) -> CubicForm:
    """Canonical representative for P > 0 via Gauss reduction of the Hessian."""
    while True:
        A, B, C = hessian(f)
        if abs(B) > A:
            k = (B + A) // (2 * A)
            f = act(_n_of(-k), f)
            continue
        if C < A:
            f = act(W, f)
            continue
        break
    # f is now weakly reduced; minimize over the weakly reduced small images.
    best = tuple(f)
    for g in SMALL_MATRICES:
        h = act(g, f)
        if _weakly_reduced(h) and tuple(h) < best:
            best = tuple(h)
    return CubicForm(*best)


def _sign_at(f, p: int, q: int) -> int:
    """Sign of f(p, q) (value of the cubic at the rational point p/q, q > 0)."""
    v = value_at(f, p, q)
    return (v > 0) - (v < 0)


def _in_open_domain(f) -> bool:
    """Exact test: x1 > 0 and the complex root lies strictly inside the domain.

    Writing the real root as rho and the complex pair as roots of
    t^2 - s1 t + s2 (so rho + s1 = -b/a, s2 * rho = -d/a), the conditions
    |s1| < 1 and s2 > 1 translate into sign conditions of f at the rational
    points (-b-a)/a, (-b+a)/a and -d/a, because sign f(t) = sign(t - rho).
    """
    a, b, c, d = f
    if a <= 0 or d == 0:
        return False
    # s1 < 1  <=>  rho > (-b-a)/a  <=>  f((-b-a)/a) < 0
    if _sign_at(f, -b - a, a) >= 0:
        return False
    # s1 > -1 <=>  rho < (-b+a)/a  <=>  f((-b+a)/a) > 0
    if _sign_at(f, a - b, a) <= 0:
        return False
    # s2 > 1  <=>  (d < 0 and f(-d/a) > 0) or (d > 0 and f(-d/a) < 0)
    s = _sign_at(f, -d, a)
    return s > 0 if d < 0 else s < 0


def _canonical_neg_irreducible(f: CubicForm) -> CubicForm:
    """Float-guided root reduction, accepted only by the exact domain test."""
    for _ in range(10000):
        if _in_open_domain(f):
            return f
        if _in_open_domain(-f):
            return -f
        a, b, c, d = f
        if a == 0:
            raise AssertionError(f"irreducible form with x1 = 0: {tuple(f)}")
        # complex root theta of a t^3 + b t^2 + c t + d
        rts = np.roots([a, b, c, d])
        theta = max(rts, key=lambda z: abs(z.imag))
        k = round(theta.real)
        if k != 0:
            # (1 0; k 1) substitutes u -> u + k v, translating roots t -> t - k.
            f = act(_n_of(k), f)
            continue
        if abs(theta) < 1:
            f = act(W, f)
            continue
        # Float says we are on the boundary; nudge by a translation and retry.
        f = act(_n_of(1 if theta.real > 0 else -1), f)
    raise AssertionError(f"root reduction failed to converge for {tuple(f)}")


def _canonical_neg_reducible(f: CubicForm) -> CubicForm:
    """Unique presentation (p, q, r, 0) with r > 0 and 0 <= q < 2r."""
    roots = rational_roots(f)
    if len(roots) != 1:
        raise AssertionError(
            f"form {tuple(f)} with P < 0 should have exactly one rational root, got {roots}"
        )
    p0, q0 = roots[0]
    # Send the root (p0 : q0) to (0 : 1): need g = (p q; p0 q0) with det +1.
    g_, u_, v_ = _xgcd(q0, -p0)
    assert g_ == 1, (p0, q0)
    g = UnimodularMatrix(u_, v_, p0, q0)
    f = act(g, f)
    p, q, r, z = f
    assert z == 0 and r != 0, (tuple(f),)
    if r < 0:
        p, q, r = -p, -q, -r
    alpha = -(q // (2 * r))
    p, q = p + alpha * q + alpha * alpha * r, q + 2 * alpha * r
    assert 0 <= q < 2 * r
    return CubicForm(p, q, r, 0)


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def canonical_reduce(f) -> CubicForm:
    """Orbit-constant, orbit-distinguishing representative of the orbit of f."""
    f = CubicForm(*f)
    p = discriminant(f)
    if p == 0:
        raise ValueError(f"form {tuple(f)} has zero discriminant")
    if p > 0:
        return _canonical_pos(f)
    if is_irreducible(f):
        return _canonical_neg_irreducible(f)
    return _canonical_neg_reducible(f)


def orbit_bfs(f, cap: int) -> set:
    """BFS closure of {f} under u(1), u(-1), w within the box |coeff| <= cap."""
    f = CubicForm(*f)
    if discriminant(f) == 0:
        raise ValueError(f"form {tuple(f)} has zero discriminant")
    start = tuple(f)
    seen = {start}
    if any(abs(t) > cap for t in start):
        return seen
    queue = deque([start])
    gens = (U1, U1_INV, W)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(act(g, x))
            if y not in seen and all(abs(t) <= cap for t in y):
                seen.add(y)
                queue.append(y)
    return seen


def _order3_elements(bound: int):
    """Order-3 elements of SL2(Z) with |q|, |r| <= bound.

    They have trace -1: g = (p, q; r, -1-p) with q*r = -(p^2 + p + 1), and
    p runs over -bound..bound.
    """
    for p in range(-bound, bound + 1):
        m = p * p + p + 1
        q = 1
        while q * q <= m:
            if m % q == 0:
                for qq in {q, m // q}:
                    for sgn in (1, -1):
                        qv = sgn * qq
                        rv = -m // qv
                        if abs(qv) <= bound and abs(rv) <= bound:
                            yield UnimodularMatrix(p, qv, rv, -1 - p)
            q += 1


# The action matrices of the order-3 elements up to an entry bound are
# enumerated once and cached (a larger cache is a superset, so reusing it
# for smaller bounds can only find more genuine stabilizers).
_STAB3_SEARCH_CACHE = {"bound": 0, "mats": None}


def _stab3_action_matrices(bound: int):
    cache = _STAB3_SEARCH_CACHE
    if cache["bound"] >= bound and cache["mats"] is not None:
        return cache["mats"]
    mats = [action_matrix(g) for g in _order3_elements(bound)]
    arr = np.array(mats, dtype=np.int64).reshape(-1, 4, 4)
    cache["bound"] = bound
    cache["mats"] = arr
    return arr


def stabilizer_order(f, search_bound: int | None = None) -> int:
    """1 or 3: order of the SL2(Z)-stabilizer of f.

    The search covers order-3 candidates with entries up to search_bound
    (default 10 * (1 + max |coefficient|)); every reported stabilizer is
    verified exactly.
    """
    f = CubicForm(*f)
    if discriminant(f) == 0:
        raise ValueError(f"form {tuple(f)} has zero discriminant")
    if search_bound is None:
        search_bound = 10 * (1 + max(abs(t) for t in f))
    if search_bound > 2000 or max(abs(t) for t in f) > 10 ** 4:
        # avoid int64 overflow in the vectorized path; exact Python loop
        return 3 if any(act(g, f) == f for g in _order3_elements(search_bound)) else 1
    mats = _stab3_action_matrices(search_bound)
    if len(mats) == 0:
        return 1
    v = np.array(f, dtype=np.int64)
    return 3 if ((mats @ v) == v).all(axis=1).any() else 1
