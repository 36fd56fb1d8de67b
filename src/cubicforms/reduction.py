"""Canonical orbit representatives, orbit search and stabilizer orders.

Every scalar rule reduces first and then decides on the small reduced form,
with exact integer arithmetic throughout, so it runs in time polynomial in the
digit count of the input.  Reduction strategy, by sign of the discriminant P:

* P > 0: the Hessian covariant is positive definite (disc = -3P < 0).  Reduce
  it to |B| <= A <= C by classical Gauss reduction, pulling the substitutions
  back to the cubic.  The forms in one orbit whose Hessian is weakly reduced
  differ by one of the 20 determinant-one matrices with entries in {-1,0,1};
  the canonical representative is the lexicographically least of those images
  that are themselves weakly reduced.  The Hessian's boundary type decides
  which images compete: +-f if |B| < A < C, all 20 if A = C.  If |B| = A < C,
  +-n(-B/A) f flip B, and the image with B = A always wins: once the sign makes
  x1 (or x2 if x1 = 0) negative, n(1) lowers x2 by 3|x1| (or x3 by 2|x2|).
  One columnwise rule (_canonical_pos) serves single forms and whole strata:
  one product with the stacked action matrices gives all 20 images of each
  A = C row, and a knockout of lexicographic comparisons keeps the least.
  A stabilizer of f fixes its Hessian, and the automorphs of a reduced
  positive-definite quadratic form have entries in {-1, 0, 1}, so the
  stabilizer is read off the same reduced form.  The forms an order-3
  matrix fixes are a rank-2 lattice, so the stabilizer column is two pairs
  of linear tests in closed form (_pos_stab_column), with no product.

* P < 0: the dehomogenized cubic has one real root rho and two complex roots.
  Root reduction moves the upper-half-plane root theta into the closed
  fundamental domain |Re z| <= 1/2, |z| >= 1 of SL2(Z) with x1 > 0, steered by
  exact integer sign tests (sign f(t) = sign(t - rho)).  The rational roots
  of the reduced form (forms.rational_roots, exact and polynomial in the
  digit count) decide the rest:

  - irreducible: the form can never land on the domain boundary (that would
    force a rational relation on the roots), so each orbit contains exactly
    one representative with theta strictly inside and x1 > 0;
  - reducible: the form has exactly one rational root; moving that root to
    (0:1) gives a presentation (p, q, r, 0) = u * (p u^2 + q u v + r v^2)
    with r != 0.  Normalizing r > 0 and 0 <= q < 2r is a bijection onto orbits.
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import index

import numpy as np

from .forms import (
    CubicForm,
    UnimodularMatrix,
    W,
    _first_rise,
    _int_form,
    act,
    action_matrix,
    discriminant,
    hessian,
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

# The order-3 elements among them (trace -1; there are 4).  They contain every
# stabilizer of order 3 of a weakly Hessian-reduced form.
ORDER3_MATRICES = tuple(g for g in SMALL_MATRICES if g.p + g.s == -1)


# Lower-triangular unipotent: fixes the Hessian's A and shifts B by 2*alpha*A;
# it substitutes u -> u + alpha v, translating the roots t -> t - alpha.
def _n_of(alpha: int) -> UnimodularMatrix:
    return UnimodularMatrix(1, 0, alpha, 1)


def _weakly_reduced(f):
    """|B| <= A <= C for the Hessian (A, B, C) of f; f may be columns."""
    A, B, C = hessian(f)
    return (A > 0) & (abs(B) <= A) & (A <= C)


def _hessian_reduce(f: CubicForm) -> CubicForm:
    """A form in the orbit of f (P > 0) whose Hessian is weakly reduced."""
    while True:
        A, B, C = hessian(f)
        if abs(B) > A:
            k = (B + A) // (2 * A)
            f = act(_n_of(-k), f)
        elif C < A:
            f = act(W, f)
        else:
            return f


# The transposed action matrices of SMALL_MATRICES side by side, (4, 80):
# rows @ _SMALL_STACK holds the 20 images of each row, four columns each.
_SMALL_STACK = np.concatenate(
    [np.array(action_matrix(g), dtype=np.int64).T for g in SMALL_MATRICES], axis=1
)
# ORDER3_MATRICES are two inverse pairs g, g^-1 = g^2, and g fixes f iff g^-1
# does: one of each pair (the lexicographically smaller) decides.  The forms
# each fixes, ker(M - I), are spanned by x (0, -1, 1, 0) + y (1, -3, 0, 1) =
# (y, -x - 3y, x, y) for the first and by x (0, 1, 1, 0) + y (-1, -3, 0, 1)
# = (-y, x - 3y, x, y) for the second.  (a, c) reads off (y, x), so the
# integer forms fixed are exactly these Z-spans (_pos_stab_column).
_STAB3_MATS = [
    np.array(action_matrix(g), dtype=np.int64)
    for g in ORDER3_MATRICES
    if g < UnimodularMatrix(g.s, -g.q, -g.r, g.p)
]
_FLIP_MAT = np.array(action_matrix(_n_of(1)), dtype=np.int64)  # B = -A to B = A


def _lex_less(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise y < b in lexicographic order (the one row order), for (N, k)
    arrays with k <= 7, dtype object too: the sum of 2^(k - 1 - j)
    sign(b_j - y_j) over the columns has the sign of its first nonzero term."""
    score = np.zeros(len(y), dtype=np.int8)
    for j in range(y.shape[1]):
        score *= 2
        score += (b[:, j] > y[:, j]).view(np.int8)
        score -= (b[:, j] < y[:, j]).view(np.int8)
    return score > 0


def _lesser_of_pair(rows: np.ndarray) -> None:
    """Replace each row f of an (N, 4) array (int64 or object, P != 0) in
    place by lexmin(f, -f): the first nonzero coefficient (x1, else x2;
    x1 = x2 = 0 gives P = 0) made negative.  The one +-pair rule."""
    x1, x2 = rows[:, 0], rows[:, 1]
    rows[(x1 > 0) | ((x1 == 0) & (x2 > 0))] *= -1


def _canonical_pos(rows: np.ndarray) -> np.ndarray:
    """Canonical representatives for P > 0, given Hessian-reduced rows (an
    (N, 4) array; dtype object keeps big ints exact): the lex-least weakly
    reduced small-matrix image of each row."""
    A, B, C = hessian(rows.T)
    best = rows.copy()
    edge = np.flatnonzero((B == -A) & (A < C))
    best[edge] = best[edge] @ _FLIP_MAT.T
    _lesser_of_pair(best)
    # +-f have the same 20 images, since -I times a small matrix is one; f
    # is among them and weakly reduced, so the images that are not stand in
    # for f, and a knockout of _lex_less rounds leaves each row's lexmin
    idx = np.flatnonzero(A == C)
    if not len(idx):
        return best
    small = best[idx]
    imgs = (small @ _SMALL_STACK).reshape(len(idx), len(SMALL_MATRICES), 4)
    ok = _weakly_reduced(imgs.transpose(2, 0, 1))
    imgs = np.where(ok[:, :, None], imgs, small[:, None, :])
    while imgs.shape[1] > 1:
        half = imgs.shape[1] // 2
        first, second = imgs[:, :half], imgs[:, half : 2 * half]
        less = _lex_less(second.reshape(-1, 4), first.reshape(-1, 4)).reshape(-1, half)
        won = np.where(less[:, :, None], second, first)
        imgs = np.concatenate([won, imgs[:, 2 * half :]], axis=1)
    best[idx] = imgs[:, 0]
    return best


def _pos_stab_column(rows: np.ndarray) -> np.ndarray:
    """Stabilizer orders (1 or 3) of Hessian-reduced P > 0 rows (an (N, 4)
    array; dtype object keeps big ints exact): 3 iff an ORDER3_MATRICES
    element fixes the row, i.e. the row lies in the fixed lattice of one of
    the _STAB3_MATS (one per inverse pair), tested in closed form."""
    a, b, c, d = rows.T
    fixed = ((a == d) & (b + c + 3 * a == 0)) | ((a == -d) & (b == c - 3 * d))
    return np.where(fixed, 3, 1)


def _in_open_domain(f):
    """Exact test: x1 > 0 and the complex root lies strictly inside the domain.

    Writing the real root as rho and the complex pair as roots of
    t^2 - s1 t + s2 (so rho + s1 = -b/a, s2 * rho = -d/a), the conditions
    |s1| < 1 and s2 > 1 translate into sign conditions of f at the rational
    points (-b-a)/a, (-b+a)/a and -d/a, because sign f(t) = sign(t - rho).
    f may be columns (rows.T of an (N, 4) array).
    """
    a, b, _, _ = f
    return (
        (a > 0)
        & (value_at(f, -b - a, a) < 0)  # s1 < 1  <=> rho > (-b-a)/a
        & (value_at(f, a - b, a) > 0)  # s1 > -1 <=> rho < (-b+a)/a
        & _s2_above_one(f)
    )


def _s2_above_one(f):
    """Exact test s2 > 1 for x1 > 0 (f may be columns): f(-d/a) has the sign
    opposite to d, since s2 * rho = -d/a."""
    a, _, _, d = f
    v = value_at(f, -d, a)
    return ((d < 0) & (v > 0)) | ((d > 0) & (v < 0))


def _root_reduce(f: CubicForm) -> CubicForm:
    """Move the complex root of f (P < 0) into the closed fundamental domain.

    Returns a form with x1 > 0, -1 <= s1 < 1, and s2 >= 1 or x4 = 0 (the real
    root at 0; only a reducible form gets there).  Each W raises Im theta, so
    the loop ends; every step is an exact integer sign test.
    """
    if f.x1 == 0:
        f = act(W, f)
    while True:
        if f.x1 < 0:
            f = -f
        a, b, c, d = f
        # the least k with s1 - 2k < 1, i.e. f((-b - (2k+1)a)/a) < 0 (Cauchy: k = m)
        m = 2 + max(abs(b), abs(c), abs(d)) // a
        k = _first_rise(lambda k: -value_at(f, -b - (2 * k + 1) * a, a) - 1, -m, m, 2 * m + 1)
        f = act(_n_of(k), f)
        a, _, _, d = f
        # s2 < 1  <=>  f(-d/a) has the sign of d (as in _in_open_domain)
        if d * value_at(f, -d, a) <= 0:
            return f
        f = act(W, f)


def _canonical_neg_reducible(f: CubicForm, root) -> CubicForm:
    """Unique presentation (p, q, r, 0) with r > 0 and 0 <= q < 2r, given the
    rational root (p0, q0) of f."""
    p0, q0 = root
    # Send the root (p0 : q0) to (0 : 1): g = (u v; p0 q0) with det
    # u q0 - v p0 = 1, so u inverts q0 mod p0 (p0 = 0 leaves q0 = 1).
    u = pow(q0, -1, p0) if p0 else 1
    g = UnimodularMatrix(u, (u * q0 - 1) // p0 if p0 else 0, p0, q0)
    f = act(g, f)
    p, q, r, z = f
    assert z == 0 and r != 0, (tuple(f),)
    if r < 0:
        p, q, r = -p, -q, -r
    alpha = -(q // (2 * r))
    p, q = p + alpha * q + alpha * alpha * r, q + 2 * alpha * r
    assert 0 <= q < 2 * r
    return CubicForm(p, q, r, 0)


def canonical_reduce(f) -> CubicForm:
    """Orbit-constant, orbit-distinguishing representative of the orbit of f."""
    f = _int_form(f)
    p = discriminant(f)
    if p == 0:
        raise ValueError(f"form {tuple(f)} has zero discriminant")
    if p > 0:
        return CubicForm._make(_canonical_pos(np.array([_hessian_reduce(f)], dtype=object))[0])
    f = _root_reduce(f)
    roots = rational_roots(f)  # P < 0 allows at most one
    if roots:
        return _canonical_neg_reducible(f, roots[0])
    if not _in_open_domain(f):
        raise AssertionError(f"root reduction left {tuple(f)} outside the domain")
    return f


# orbit_bfs packs each form of the cap box |x_i| <= cap into one key, its
# digits x_i + cap in base W = 2 cap + 1, so the keys increase with the
# lexicographic order of the forms and key(-f) = W^4 - 1 - key(f).  Every
# key and every partial sum of its digits is at most W^4 - 1, which is at
# most 2^63 - 1 iff W <= floor(2^(63/4)) = 55 108, i.e. cap <= 27 553.
# Past that cap the keys are Python ints in object arrays.
_INT64_KEY_CAP = (isqrt(isqrt(2 ** 63)) - 1) // 2
_BFS_BLOCK = 4096  # frontier pairs expanded at once


def _int_rows(forms) -> np.ndarray:
    """forms as an (N, 4) array: int64 as given, else each coefficient a
    Python int through operator.index, so floats raise TypeError."""
    rows = np.asarray(forms)
    if rows.dtype != np.int64:
        rows = np.vectorize(index, otypes=[object])(rows)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"forms must be an (N, 4) array of forms, got shape {rows.shape}")
    return rows


def _pair_keys(x0, x1, x2, x3, cap: int, width: int, top: int):
    """The key of the +-pair of each form of the cap box, given as columns:
    the lesser of key(f) and key(-f) = top - key(f)."""
    key = x0 + cap
    for x in (x1, x2, x3):
        key = key * width + (x + cap)
    return np.minimum(key, top - key)


def _key_forms(keys, cap: int, width: int, out=None) -> np.ndarray:
    """The forms with the given keys, as rows of out (made if None)."""
    if out is None:
        out = np.empty((len(keys), 4), dtype=keys.dtype)
    for j in (3, 2, 1, 0):
        out[:, j] = keys % width - cap
        keys = keys // width
    return out


def _seed_pairs(seeds: np.ndarray, cap: int, dtype, width: int, top: int) -> tuple:
    """The pair keys of the seeds in the cap box, and their indices."""
    inside = np.flatnonzero(((seeds >= -cap) & (seeds <= cap)).all(axis=1))
    rows = seeds if len(inside) == len(seeds) else seeds[inside]
    return _pair_keys(*rows.astype(dtype, copy=False).T, cap, width, top), inside


def _images(x0, x1, x2, x3, cap: int) -> list:
    """The images u(1) f, u(-1) f and w f that lie in the cap box, of the
    forms f of the box given as columns: the columns of the images and the
    index of the form each came from."""
    even, odd, mid, s, t = x0 + x2, x1 + x3, x1 + 3 * x3, 2 * x2, 3 * x3
    at = np.arange(len(x0))
    parts = [(x3, -x2, x1, -x0, at)]  # w
    for y0, y1, y2 in ((even + odd, mid + s, x2 + t), (even - odd, mid - s, x2 - t)):
        ok = (abs(y0) <= cap) & (abs(y1) <= cap) & (abs(y2) <= cap)
        parts.append((y0[ok], y1[ok], y2[ok], x3[ok], at[ok]))
    return [np.concatenate(col) for col in zip(*parts)]


def _union(owner: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the classes of a[i] and b[i] in owner, where every entry holds
    the least index of its class: min-label union, then pointer jumping
    until every entry holds its class's least index again."""
    while True:
        ra, rb = owner[a], owner[b]
        apart = ra != rb
        if not apart.any():
            return
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(owner, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = owner[owner]
            if np.array_equal(up, owner):
                break
            owner[:] = up


def _fold(keys, labels, edges: list) -> tuple:
    """The pairs sorted by key, one of each key; the labels of equal keys
    go to edges."""
    order = np.argsort(keys)
    keys, labels = keys[order], labels[order]
    same = keys[1:] == keys[:-1]
    edges.append((labels[1:][same], labels[:-1][same]))
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = ~same
    return keys[fresh], labels[fresh]


def orbit_bfs(forms, cap: int) -> tuple:
    """The closures of many seeds under u(1), u(-1), w within the box
    |coeff| <= cap, by one breadth-first search from all of them.

    forms is an (N, 4) array of seeds.  Returns (owner, reached): owner[i]
    is the least index of a seed in the same closure as seed i, and reached
    holds the forms reached that are not seeds, the lexicographically
    lesser of each +-pair.  So the closure of a single seed f in the cap is
    {+-f} with +-reached; a seed past the cap is not expanded, its closure
    is {f} and its owner itself.

    The images are written out: u(+-1) (x1, x2, x3, x4) = (x1 +- x2 + x3 +-
    x4, x2 +- 2 x3 + 3 x4, x3 +- 3 x4, x4), and w (x1, x2, x3, x4) = (x4,
    -x3, x2, -x1).  u(+-1) keep x4, so only the three coefficients they
    change are tested against the cap; w never leaves it.  The search runs
    on +-pairs, one packed key each (_INT64_KEY_CAP), the lesser of key(f)
    and key(-f) (_pair_keys): since the keys follow the row order, that is
    the key of _lesser_of_pair's form, the same rule.  w^2 = -I acts as -1,
    so a closure in the cap is closed under negation, and the images of -f
    are those of f negated.  u(1) and u(-1) are inverse and w^-1 = -w, so
    the graph on pairs is undirected: a pair found from level k (its
    distance to the nearest seed) lies at level k - 1, k or k + 1.  Each
    level's candidates are deduplicated by sort and tested against the
    sorted keys of levels k - 1 and k only, with no global visited set.
    Every seed starts as its own label, a new pair takes the label of the
    pair it was found from, and every edge between two labels is folded
    into a min-label union over the seed indices (_union).  The frontier
    is expanded in blocks of _BFS_BLOCK pairs, one union per block.

    The keys are int64 for cap <= _INT64_KEY_CAP and Python ints in object
    arrays past it, so the search is exact at every cap.  ValueError for a
    cap < 0 or forms not of shape (N, 4); TypeError for a float cap or
    coefficient (cap and coefficients are read through operator.index,
    unless forms is an int64 array).
    """
    cap = index(cap)
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    seeds = _int_rows(forms)
    dtype = np.int64 if cap <= _INT64_KEY_CAP else object
    width = 2 * cap + 1
    top = width ** 4 - 1
    owner = np.arange(len(seeds))
    edges = []
    level = _fold(*_seed_pairs(seeds, cap, dtype, width, top), edges)
    _union(owner, *map(np.concatenate, zip(*edges)))
    prev = level[0][:0], level[1][:0]
    found = []
    while len(level[0]):
        fresh = []
        for start in range(0, len(level[0]), _BFS_BLOCK):
            block = level[0][start : start + _BFS_BLOCK]
            *images, at = _images(*_key_forms(block, cap, width).T, cap)
            labels = level[1][start : start + _BFS_BLOCK][at]
            edges = []
            keys, labels = _fold(_pair_keys(*images, cap, width, top), labels, edges)
            for known, known_labels in (prev, level):
                if not len(known):
                    continue
                pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
                hit = known[pos] == keys
                edges.append((labels[hit], known_labels[pos[hit]]))
                keys, labels = keys[~hit], labels[~hit]
            fresh.append((keys, labels))
            _union(owner, *map(np.concatenate, zip(*edges)))
        edges = []
        prev, level = level, _fold(*map(np.concatenate, zip(*fresh)), edges)
        _union(owner, *map(np.concatenate, zip(*edges)))
        found.append(level[0])
    reached = np.empty((sum(map(len, found)), 4), dtype=dtype)
    start = 0
    for keys in found:
        _key_forms(keys, cap, width, reached[start : start + len(keys)])
        start += len(keys)
    return owner, reached


def stabilizer_order(f) -> int:
    """1 or 3: order of the SL2(Z)-stabilizer of f.

    -I acts as -1, so the stabilizer is trivial or generated by an element of
    order 3 (trace -1).  Such an element has no real fixed point, so it cannot
    fix the one real root of a form with P < 0: the order is 1 there.  For
    P > 0 a stabilizer of f also fixes its positive-definite Hessian, and the
    automorphs of a reduced positive-definite quadratic form have entries in
    {-1, 0, 1} (Cremona, Reduction of binary cubic and quartic forms, LMS JCM
    1999).  So after Gauss reduction of the Hessian the order is 3 iff one of
    ORDER3_MATRICES fixes the form (_pos_stab_column, on a one-row object
    array, so big ints stay exact).  Polynomial in the digit count.
    """
    f = _int_form(f)
    p = discriminant(f)
    if p == 0:
        raise ValueError(f"form {tuple(f)} has zero discriminant")
    if p < 0:
        return 1
    return int(_pos_stab_column(np.array([_hessian_reduce(f)], dtype=object))[0])
