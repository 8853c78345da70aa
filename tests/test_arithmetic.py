"""The arithmetic core against plain references: element products read the
algebra's path-product table, results share one zero and never change an
operand, and the matrix products and ``Matrix.apply`` skip zero entries."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.complexes import AlgMatrix, Summand
from jwcat.linalg import Matrix
from jwcat.quiver import (AlgebraElement, ConstructionError, Path, PathAlgebra,
                          build_B, build_C, zigzag_quiver)
from jwcat.series import TruncatedSeries

ALGEBRAS = {
    "B": build_B(),
    "C": build_C(),
    # no relations: products vanish only past the degree bound
    "free-d3": PathAlgebra(zigzag_quiver(), [], d_max=3, name="F"),
}
B = ALGEBRAS["B"]

coefficients = st.integers(-3, 3)


@st.composite
def elements(draw, alg):
    picks = draw(st.lists(st.tuples(st.sampled_from(alg.basis), coefficients),
                          max_size=6))
    terms: dict = {}
    for p, c in picks:
        terms[p] = terms.get(p, 0) + c
    return AlgebraElement(alg, terms)


def reference_product(x, y):
    """x·y term by term through ``mul_paths``, through the public constructor."""
    alg = x.algebra
    out: dict = {}
    for p, cp in x.terms.items():
        for q, cq in y.terms.items():
            r = alg.mul_paths(p, q)
            if r is not None:
                out[r] = out.get(r, 0) + cp * cq
    return AlgebraElement(alg, out)


def clean_coefficient(c):
    """An exact coefficient as the package stores it: an int, or a Fraction
    that is not integral; never a float, and never a Fraction with
    denominator 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_clean(x):
    assert all(clean_coefficient(c) and c != 0 for c in x.terms.values())
    assert all(p in x.algebra.basis for p in x.terms)


@st.composite
def element_triples(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    x, w, z = (draw(elements(alg)) for _ in range(3))
    return x, w, z


class TestElementArithmetic:
    def test_table_covers_every_nonzero_basis_product(self):
        for alg in ALGEBRAS.values():
            for p in alg.basis:
                for q in alg.basis:
                    assert alg._products[p].get(q) == alg.mul_paths(p, q)

    @settings(max_examples=150, deadline=None)
    @given(element_triples())
    def test_products_match_mul_paths(self, triple):
        x, w, z = triple
        # y = -x + w cancels x's terms in sums and products
        y = -x + w
        for a, b in ((x, z), (z, x), (x + y, z), (z, x + y), (x, y), (y, x)):
            prod = a * b
            ref = reference_product(a, b)
            assert prod == ref and prod.terms == ref.terms
            assert_clean(prod)
        assert (x + y) == w
        assert_clean(x + y)

    @settings(max_examples=100, deadline=None)
    @given(element_triples(), st.integers(-3, 3))
    def test_arithmetic_never_mutates_an_operand(self, triple, c):
        x, y, _ = triple
        before = (dict(x.terms), dict(y.terms))
        results = [x + y, x - y, -x, x.scale(c), x * y, y * x, x - x, y + x]
        assert (x.terms, y.terms) == before
        for r in results:
            assert_clean(r)
        assert x.scale(0) is x.algebra.zero()

    def test_zero_is_one_shared_object(self):
        for alg in ALGEBRAS.values():
            z = alg.zero()
            assert z is alg.zero() and z.is_zero()
            e = alg.idempotent(alg.quiver.vertices[0])
            assert e - e is z
            assert e * z is z and z * e is z and z + z is z
        rows = (Summand("1", 0), Summand("2", 1))
        m = AlgMatrix.zero(B, rows, rows)
        assert all(x is B.zero() for row in m.entries for x in row)
        ident = AlgMatrix.identity(B, rows)
        assert ident.entries[0][1] is B.zero() and ident.entries[1][0] is B.zero()

    def test_public_constructor_checks_and_coerces(self):
        with pytest.raises(ConstructionError, match="not a basis path"):
            AlgebraElement(B, {Path(("b", "a")): 1})      # the relation ba = 0
        with pytest.raises(ConstructionError, match="not a basis path"):
            AlgebraElement(B, {Path(("a", "a")): 1})      # not composable
        a, b = Path(("a",)), Path(("b",))
        x = AlgebraElement(B, {a: 2, b: 0, Path(("a", "b")): Fraction(1, 2)})
        assert x.terms == {a: Fraction(2), Path(("a", "b")): Fraction(1, 2)}
        assert_clean(x)
        assert AlgebraElement(B, {a: Fraction(0)}).is_zero()
        # an integral Fraction is stored as an int, a float as its exact value
        y = AlgebraElement(B, {a: Fraction(4, 2), b: 0.5, Path(("a", "b")): -3})
        assert y.terms == {a: 2, b: Fraction(1, 2), Path(("a", "b")): -3}
        assert type(y.terms[a]) is int
        assert_clean(y)


def test_a_fraction_result_that_comes_out_integral_is_stored_as_an_int():
    """Sums, products and scalings of non-integral Fractions whose result is
    integral store it as an int: in elements, matrices and series."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = AlgebraElement(B, {Path(("a",)): half})
    for x in (a + a, a.scale(2), a * B.idempotent("1").scale(2)):
        assert x.terms == {Path(("a",)): 1}
        assert_clean(x)
    m = Matrix.from_rows([[half, third]])
    for prod in (m + m, m * Matrix.from_rows([[2], [3]]), m.scale(6)):
        assert all(clean_coefficient(x) for row in prod.data for x in row)
    assert (m * Matrix.from_rows([[2], [3]])).data == [[2]]
    s = TruncatedSeries({0: half}, 0, 3)
    assert (s + s).coeffs == {0: 1} and type((s + s).coeffs[0]) is int
    assert type((s * TruncatedSeries({0: 2}, 0, 3)).coeffs[0]) is int


def sandwiched_paths(alg, row: Summand, col: Summand):
    """Basis paths z with z = e(row)·z·e(col) of degree col.shift - row.shift."""
    return [p for p in alg.basis
            if alg.target(p) == row.vertex and alg.source(p) == col.vertex
            and alg.path_degree(p) == col.shift - row.shift]


summand_tuples = st.lists(
    st.builds(Summand, st.sampled_from(("1", "2")), st.integers(-2, 0)),
    max_size=4).map(tuple)


@st.composite
def sandwiched_matrices(draw, rows, cols):
    entries = []
    for r in rows:
        row = []
        for c in cols:
            terms = {p: draw(coefficients) for p in sandwiched_paths(B, r, c)}
            row.append(AlgebraElement(B, terms))
        entries.append(row)
    return AlgMatrix(B, rows, cols, entries)


@st.composite
def composable_pairs(draw):
    rows, mid, cols = draw(summand_tuples), draw(summand_tuples), draw(summand_tuples)
    return draw(sandwiched_matrices(rows, mid)), draw(sandwiched_matrices(mid, cols))


class TestAlgMatrixProduct:
    @settings(max_examples=150, deadline=None)
    @given(composable_pairs())
    def test_product_matches_dense_triple_loop(self, pair):
        x, y = pair
        before = ([row[:] for row in x.entries], [row[:] for row in y.entries])
        prod = x * y
        ref = [[B.zero() for _ in y.cols] for _ in x.rows]
        for i in range(len(x.rows)):
            for j in range(len(y.cols)):
                for k in range(len(x.cols)):
                    ref[i][j] = ref[i][j] + x.entries[i][k] * y.entries[k][j]
        assert prod.entries == ref
        assert (prod.rows, prod.cols) == (x.rows, y.cols)
        AlgMatrix(B, prod.rows, prod.cols, prod.entries)._validate()
        assert (x.entries, y.entries) == before
        assert prod.is_zero() == all(e.is_zero() for row in ref for e in row)


@st.composite
def matrices_and_vectors(draw):
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    sparse = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    rows = [[Fraction(draw(sparse), draw(st.integers(1, 3))) for _ in range(m)]
            for _ in range(n)]
    vec = [Fraction(draw(sparse), draw(st.integers(1, 3))) for _ in range(m)]
    return Matrix(n, m, rows), vec


@settings(max_examples=150, deadline=None)
@given(matrices_and_vectors())
def test_apply_matches_dense_sum(case):
    mat, vec = case
    out = mat.apply(vec)
    ref = [sum((row[j] * vec[j] for j in range(mat.ncols)), Fraction(0))
           for row in mat.data]
    assert out == ref
    assert all(clean_coefficient(x) for x in out)
