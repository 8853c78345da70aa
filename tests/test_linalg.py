import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.linalg import Matrix, search_invertible


def rand_matrix(rng, n, m, lo=-5, hi=5):
    return Matrix(n, m, [[Fraction(rng.randint(lo, hi)) for _ in range(m)]
                         for _ in range(n)])


def test_identity_and_mul():
    rng = random.Random(3)
    for _ in range(20):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        a = rand_matrix(rng, n, m)
        assert Matrix.identity(n) * a == a
        assert a * Matrix.identity(m) == a


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(50):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, n, m)
        assert a.rank() + len(a.nullspace()) == m


def test_nullspace_annihilated():
    rng = random.Random(9)
    for _ in range(50):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in a.nullspace():
            assert all(c == 0 for c in a.apply(v))


def test_solve_consistency():
    rng = random.Random(13)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, n, m)
        x = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        b = a.apply(x)
        sol = a.solve(b)
        assert sol is not None
        assert a.apply(sol) == b


def test_solve_inconsistent():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    assert a.solve([Fraction(1), Fraction(2)]) is None


def test_inverse():
    rng = random.Random(17)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        inv = a.inverse()
        if inv is not None:
            found += 1
            assert a * inv == Matrix.identity(n)
            assert inv * a == Matrix.identity(n)
    assert found > 10


def test_rref_idempotent():
    rng = random.Random(19)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, piv = a.rref()
        r2, piv2 = r.rref()
        assert r == r2 and piv == piv2


def reference_rref(a):
    """Textbook dense Gauss-Jordan: first nonzero row below as pivot."""
    m = [row[:] for row in a.data]
    pivots, r = [], 0
    for c in range(a.ncols):
        if r == a.nrows:
            break
        below = [i for i in range(r, a.nrows) if m[i][c] != 0]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(a.nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=7):
    """Small integer matrices, mostly zeros, with repeated and scaled rows."""
    n = draw(st.integers(0, max_rows))
    m = draw(st.integers(0, max_cols))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4))
    rows = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    for i in range(n):
        if i and draw(st.booleans()):
            k = draw(st.integers(0, i - 1))
            c = draw(st.sampled_from([0, 1, -2]))
            rows[i] = [c * x for x in rows[k]]
    return Matrix(n, m, rows)


@settings(max_examples=300, deadline=None)
@given(a=sparse_matrices())
def test_rref_matches_dense_gauss_jordan(a):
    r, piv = a.rref()
    ref, ref_piv = reference_rref(a)
    assert piv == ref_piv
    assert (r.nrows, r.ncols) == (a.nrows, a.ncols)
    assert r.data == ref


@settings(max_examples=200, deadline=None)
@given(a=sparse_matrices(), data=st.data())
def test_sparse_kernels_and_solutions(a, data):
    for v in a.nullspace():
        assert all(c == 0 for c in a.apply(v))
    assert a.rank() + len(a.nullspace()) == a.ncols
    x = [Fraction(data.draw(st.integers(-3, 3))) for _ in range(a.ncols)]
    b = a.apply(x)
    sol = a.solve(b)
    assert sol is not None and a.apply(sol) == b
    inv = a.inverse()
    if inv is not None:
        assert a * inv == Matrix.identity(a.nrows) == inv * a
        assert sol == inv.apply(b)
    elif a.nrows == a.ncols:
        assert a.rank() < a.nrows


# ---------------------------------------------------------------------------
# search_invertible: basis elements first, then small combinations
# ---------------------------------------------------------------------------

COEFFS = (0, 1, -1, 2)


def diagonal(*entries):
    n = len(entries)
    return Matrix(n, n, [[Fraction(entries[i]) if i == j else Fraction(0)
                          for j in range(n)] for i in range(n)])


def test_search_invertible_combines_singular_basis_elements():
    """Neither diagonal unit is invertible; the first combination that is,
    in product order, is their sum, with coefficients (1, 1)."""
    basis = [diagonal(1, 0), diagonal(0, 1)]
    tried = []

    def accept(m):
        tried.append(m)
        return m.is_invertible()

    assert search_invertible(basis, accept) == Matrix.identity(2)
    combos = [c for c in itertools.product(COEFFS, repeat=2) if any(c)]
    want = basis + [sum((b.scale(x) for x, b in zip(c, basis) if x),
                        Matrix(2, 2)) for c in combos[:combos.index((1, 1)) + 1]]
    assert tried == want


def test_search_invertible_with_a_custom_combine_follows_product_order():
    """The custom ``combine`` receives every coefficient tuple but all-zero,
    in ``itertools.product`` order over (0, 1, -1, 2), until one passes."""
    basis = [diagonal(1, 0, 0), diagonal(0, 1, 0), diagonal(0, 0, 1)]
    seen = []

    def combine(coeffs):
        seen.append(coeffs)
        return diagonal(*coeffs)

    # invertible only with every coefficient nonzero and the last one 2
    def accept(m):
        return m.is_invertible() and m.data[2][2] == 2

    got = search_invertible(basis, accept, combine)
    assert got == diagonal(1, 1, 2)
    combos = [c for c in itertools.product(COEFFS, repeat=3) if any(c)]
    assert seen == combos[:combos.index((1, 1, 2)) + 1]


def test_search_invertible_combines_at_most_four_basis_elements():
    singular = [diagonal(*(1 if j == i else 0 for j in range(5))) for i in range(5)]
    calls = []

    def combine(coeffs):
        calls.append(coeffs)
        return diagonal(*coeffs)

    assert search_invertible(singular, Matrix.is_invertible, combine) is None
    assert calls == []
    assert search_invertible(singular[:4], lambda m: False, combine) is None
    assert len(calls) == len(COEFFS) ** 4 - 1
