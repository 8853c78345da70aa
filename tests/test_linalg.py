import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.linalg import Matrix, kernel_from_columns, search_invertible, solve_from_columns
from test_arithmetic import clean_coefficient


def rand_matrix(rng, n, m, lo=-5, hi=5):
    return Matrix(n, m, [[Fraction(rng.randint(lo, hi)) for _ in range(m)]
                         for _ in range(n)])


def solve(a, b):
    """``solve_from_columns`` on the columns of ``a``."""
    return solve_from_columns(lambda j: [row[j] for row in a.data], a.ncols, b)


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
        sol = solve(a, b)
        assert sol is not None
        assert a.apply(sol) == b


def test_solve_inconsistent():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve(a, [Fraction(1), Fraction(2)]) is None


def test_solve_rejects_a_right_hand_side_of_another_length():
    a = Matrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        solve(a, [Fraction(1)])
    with pytest.raises(ValueError):
        solve(a, [Fraction(1)] * 3)


def test_rref_idempotent():
    rng = random.Random(19)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, piv = a.rref()
        r2, piv2 = r.rref()
        assert r == r2 and piv == piv2


def reference_rref(a):
    """Textbook dense Gauss-Jordan: first nonzero row below as pivot. It
    divides through ``Fraction``, so integer entries stay exact."""
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
        m[r] = [Fraction(x) / pv for x in m[r]]
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
    sol = solve(a, b)
    assert sol is not None and a.apply(sol) == b


@settings(max_examples=300, deadline=None)
@given(a=sparse_matrices(), data=st.data())
def test_a_solve_reads_the_reduced_form_of_the_augmented_matrix(a, data):
    """The solution is the one read off the reduced form of [A | b], and it
    is None exactly when b's column is a pivot; b is A x half of the time."""
    if data.draw(st.booleans()):
        b = a.apply([Fraction(data.draw(st.integers(-3, 3))) for _ in range(a.ncols)])
    else:
        b = [Fraction(data.draw(st.integers(-2, 2))) for _ in range(a.nrows)]
    ref, ref_piv = reference_rref(Matrix(a.nrows, a.ncols + 1,
                                         [row + [x] for row, x in zip(a.data, b)]))
    sol = solve(a, b)
    if a.ncols in ref_piv:
        assert sol is None
        return
    want = [Fraction(0)] * a.ncols
    for row, pc in zip(ref, ref_piv):
        want[pc] = row[a.ncols]
    assert sol == want
    assert a.apply(sol) == b


@st.composite
def non_unit_pivot_systems(draw):
    """(p, A) with A = [[p, 1, 0 ...], [0, 0, B]] for p in {2, 3, -3}: column
    0 holds one nonzero, p, so it is a pivot and column 1 is free, and B is
    a small sparse integer matrix."""
    p = draw(st.sampled_from((2, 3, -3)))
    rest = draw(sparse_matrices(max_rows=4, max_cols=4))
    rows = [[p, 1] + [0] * rest.ncols] + [[0, 0] + row for row in rest.data]
    return p, Matrix(1 + rest.nrows, 2 + rest.ncols, rows)


@settings(max_examples=150, deadline=None)
@given(case=non_unit_pivot_systems(), data=st.data())
def test_a_non_unit_pivot_gives_exact_fractions(case, data):
    """Dividing by p leaves 1/p, not a float, in the reduced form, the kernel
    and the solution, and every entry is an int or a non-integral Fraction."""
    p, a = case

    def column(j):
        return [row[j] for row in a.data]

    r, piv = a.rref()
    ref, ref_piv = reference_rref(a)
    assert (r.data, piv) == (ref, ref_piv)
    assert r.data[0][:2] == [1, Fraction(1, p)]
    kernel = kernel_from_columns(column, a.ncols)
    assert [-Fraction(1, p), 1] + [0] * (a.ncols - 2) in kernel
    for v in kernel:
        assert not any(a.apply(v))
    y = [0, 0] + [data.draw(st.integers(-3, 3)) for _ in range(a.ncols - 2)]
    b = [1] + a.apply(y)[1:]
    sol = solve_from_columns(column, a.ncols, b)
    assert sol[0] == Fraction(1, p) and a.apply(sol) == b
    for values in (*r.data, *kernel, sol, b):
        assert all(clean_coefficient(x) for x in values)


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


def test_search_invertible_sums_rows_in_product_order():
    """Kernel vectors enter as 1 x n rows; after the basis, the candidates
    are the sums of c·row over every coefficient tuple but all-zero, in
    ``itertools.product`` order over (0, 1, -1, 2), until one passes."""
    basis = [Matrix.from_rows([v]) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    tried = []

    def accept(r):
        tried.append(r.data[0])
        return r.data[0] == [1, 1, 2]

    assert search_invertible(basis, accept) == Matrix.from_rows([[1, 1, 2]])
    combos = [c for c in itertools.product(COEFFS, repeat=3) if any(c)]
    assert tried == [b.data[0] for b in basis] + \
        [list(c) for c in combos[:combos.index((1, 1, 2)) + 1]]


def test_search_invertible_combines_at_most_four_basis_elements():
    """Five basis elements are tried alone and never combined; four are
    followed by all 4^4 - 1 combinations."""
    units = [diagonal(*(1 if j == i else 0 for j in range(5))) for i in range(5)]
    tried = []

    def reject(m):
        tried.append(m)
        return False

    assert search_invertible(units, reject) is None
    assert tried == units
    tried.clear()
    assert search_invertible(units[:4], reject) is None
    combos = [c for c in itertools.product(COEFFS, repeat=4) if any(c)]
    assert tried == units[:4] + [diagonal(*c, 0) for c in combos]


@st.composite
def fraction_matrix_triples(draw):
    """a and b of one shape n x m and c of shape m x k, with entries of
    denominator 1 to 3 and many zeros, so that sums and products often come
    out integral as Fractions; and a Fraction to scale by."""
    n, m, k = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(0), st.just(0),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))

    def matrix(r, s):
        return Matrix(r, s, [[draw(entry) for _ in range(s)] for _ in range(r)])

    scalar = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return matrix(n, m), matrix(n, m), matrix(m, k), scalar


def assert_as_built_by_the_public_constructor(x):
    """Every cell is clean (an int, or a Fraction that is not integral), the
    rows have the shape, and the public constructor on the same data gives
    an equal matrix."""
    assert len(x.data) == x.nrows and all(len(row) == x.ncols for row in x.data)
    assert all(clean_coefficient(c) for row in x.data for c in row)
    assert x == Matrix(x.nrows, x.ncols, x.data)


@settings(max_examples=300, deadline=None)
@given(case=fraction_matrix_triples(), data=st.data())
def test_every_result_of_the_arithmetic_is_clean(case, data):
    """The results the arithmetic builds without the public constructor's
    checks (``Matrix._trusted``) hold exactly what it would have stored."""
    a, b, c, s = case
    rows = data.draw(st.lists(st.integers(0, a.nrows - 1), max_size=4)) if a.nrows else []
    cols = data.draw(st.lists(st.integers(0, a.ncols - 1), max_size=4)) if a.ncols else []
    for x in (a + b, a - b, -a, a * c, a.scale(s), a.scale(2), a.hstack(b),
              a.submatrix(rows, cols), a.rref()[0]):
        assert_as_built_by_the_public_constructor(x)
    kernel = a.nullspace()
    assert all(clean_coefficient(v) for vec in kernel for v in vec)
    assert_as_built_by_the_public_constructor(Matrix(len(kernel), a.ncols, kernel))
