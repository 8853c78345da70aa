import random

import pytest

from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, ProjBicomplex,
                             ProjChainMap, ProjComplex, Summand, TailSpec,
                             chain_maps_homotopic, detect_tail, gaussian_reduce,
                             homology, iso_in_homotopy_category,
                             match_up_to_diagonal_signs, realize,
                             reduce_on_window, solve_chain_maps, total_complex)
from jwcat.modules import projective, simple
from jwcat.quiver import ConstructionError, build_B
from jwcat.resolutions import projective_resolution


@pytest.fixture(scope="module")
def B():
    return build_B()


def P2s(r):
    return Summand("2", r)


def P1s(r):
    return Summand("1", r)


def ck_p2_complex(B, K):
    """The contractible complex from the topological projector on the big
    projective, with the displayed matrices."""
    c = B.path_element(("a", "b"))
    e2 = B.idempotent("2")
    z = B.zero()
    terms = {0: (P2s(0),)}
    for k in range(1, K + 1):
        terms[k] = (P2s(-2 * k), P2s(-2 * k + 2))
    diffs = {0: AlgMatrix(B, terms[1], terms[0], [[c], [e2]])}
    for k in range(1, K):
        sgn = -1 if k % 2 == 1 else 1
        diffs[k] = AlgMatrix(B, terms[k + 1], terms[k],
                             [[c.scale(sgn), z], [e2, c.scale(sgn)]])
    return ProjComplex(B, terms, diffs, TailSpec(RIGHT_TAIL, K - 3, 2, -4), "nu-eta-zeta")


class TestShift:
    def test_identity_shift(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        assert res.shift(0, 0).terms == res.terms

    def test_double_shift_composes(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        one = res.shift(2, 1).shift(-1, 2)
        two = res.shift(1, 3)
        assert one.terms == two.terms
        assert {i: d.entries for i, d in one.diffs.items()} == \
            {i: d.entries for i, d in two.diffs.items()}

    def test_odd_homological_shift_flips_sign(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        flipped = res.shift(0, 1)
        for i, d in res.diffs.items():
            assert flipped.diffs[i - 1].entries[0][0] == -d.entries[0][0]


class TestTotalization:
    def test_single_row_unchanged(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        terms = {(0, i): t for i, t in res.terms.items()}
        d2 = {(0, i): d for i, d in res.diffs.items()}
        bc = ProjBicomplex(B, terms, {}, d2)
        tot = total_complex(bc)
        assert tot.terms == res.terms
        assert {i: d.entries for i, d in tot.diffs.items()} == \
            {i: d.entries for i, d in res.diffs.items()}

    def test_total_differential_squares_to_zero_random(self, B):
        # random 2-column bicomplexes: columns are shifts of the simple's
        # resolution, the horizontal map a random chain map between them
        rng = random.Random(41)
        base = projective_resolution(simple(B, "1"), 4)
        for _ in range(20):
            r = rng.randint(-2, 2)
            X = base.shift(2 * rng.randint(-1, 1), 0)
            Y = base.shift(r, 0) if r % 2 == 0 else base.shift(r - 1, 0)
            lo = min(X.window()[0], Y.window()[0])
            hi = max(X.window()[1], Y.window()[1])
            sols = solve_chain_maps(X, Y, (lo, hi))
            if not sols:
                continue
            f = sols[rng.randrange(len(sols))].scale(rng.randint(-3, 3))
            terms = {}
            d1 = {}
            d2 = {}
            for i, t in X.terms.items():
                terms[(0, i)] = t
            for i, t in Y.terms.items():
                terms[(1, i)] = t
            for i, d in X.diffs.items():
                d2[(0, i)] = d
            for i, d in Y.diffs.items():
                d2[(1, i)] = d
            for i in X.terms:
                comp = f.component(i)
                if comp.rows and comp.cols:
                    d1[(0, i)] = comp
            bc = ProjBicomplex(B, terms, d1, d2)
            tot = total_complex(bc)   # construction validates d∘d = 0
            assert tot is not None


def cell_failures(bc):
    """The cell identities of ``bc`` that fail, as (identity, cell): the
    cell-by-cell check that the totalization's d∘d replaces, kept as the
    reference."""
    out = []
    for (p, q) in sorted(bc.terms):
        if not (bc.D1(p + 1, q) * bc.D1(p, q)).is_zero():
            out.append(("d1∘d1", (p, q)))
        if not (bc.D2(p, q + 1) * bc.D2(p, q)).is_zero():
            out.append(("d2∘d2", (p, q)))
        if bc.D2(p + 1, q) * bc.D1(p, q) != bc.D1(p, q + 1) * bc.D2(p, q):
            out.append(("square", (p, q)))
    return out


def bumped(m):
    """For each entry of ``m`` between summands at one vertex v, ``m`` with
    e(v) added to that entry."""
    for r, row in enumerate(m.rows):
        for k, col in enumerate(m.cols):
            if row.vertex == col.vertex:
                bad = AlgMatrix(m.algebra, m.rows, m.cols, m.entries, validate=False)
                bad.entries[r][k] = bad.entries[r][k] + m.algebra.idempotent(row.vertex)
                yield bad


def corruptions(bc):
    """Each bicomplex that differs from ``bc`` in one entry of one block."""
    for cell, m in sorted(bc.d1.items()):
        for bad in bumped(m):
            yield ProjBicomplex(bc.algebra, bc.terms, {**bc.d1, cell: bad}, bc.d2)
    for cell, m in sorted(bc.d2.items()):
        for bad in bumped(m):
            yield ProjBicomplex(bc.algebra, bc.terms, bc.d1, {**bc.d2, cell: bad})


class TestTotalizationChecksTheBicomplex:
    """A bicomplex is checked once, by its totalization's d∘d: every broken
    cell identity is caught, at the lowest total degree where one breaks."""

    @pytest.fixture(scope="class")
    def bc(self):
        """X ⊗ CK for a three-term X, on five projector columns."""
        from jwcat.functors import Setup, ck_bicomplex
        setup = Setup.create()
        x = projective_resolution(simple(setup.B, "1"), 4).clip(-2, 0)
        bc = ck_bicomplex(setup, x, 4)
        assert cell_failures(bc) == []
        return bc

    @pytest.fixture(scope="class")
    def column(self, bc):
        """Column 1 of ``bc`` on its own, where no square meets d2."""
        return ProjBicomplex(bc.algebra,
                             {(0, q): t for (p, q), t in bc.terms.items() if p == 1},
                             {}, {(0, q): m for (p, q), m in bc.d2.items() if p == 1})

    def test_every_corrupted_entry_is_caught_where_it_breaks(self, bc, column):
        for bad in [*corruptions(bc), *corruptions(column)]:
            failures = cell_failures(bad)
            if not failures:
                total_complex(bad)
                continue
            lowest = min(p + q for _, (p, q) in failures)
            with pytest.raises(ConstructionError, match=f"d∘d != 0 at degree {lowest} "):
                total_complex(bad)

    @pytest.mark.parametrize("identity", ["d1∘d1", "d2∘d2", "square"])
    def test_each_identity_broken_alone_is_caught(self, bc, column, identity):
        for bad in [*corruptions(bc), *corruptions(column)]:
            failures = cell_failures(bad)
            if len(failures) == 1 and failures[0][0] == identity:
                p, q = failures[0][1]
                with pytest.raises(ConstructionError, match=f"d∘d != 0 at degree {p + q} "):
                    total_complex(bad)
                return
        pytest.fail(f"no single-entry corruption breaks {identity} alone")

    def test_corrupted_total_block_is_caught(self, bc):
        tot = total_complex(bc)
        n = max(tot.diffs)
        caught = 0
        for bad in bumped(tot.diffs[n]):
            if (bad * tot.diff(n - 1)).is_zero():
                continue
            with pytest.raises(ConstructionError, match=f"d∘d != 0 at degree {n - 1} "):
                ProjComplex(tot.algebra, tot.terms, {**tot.diffs, n: bad}, None, tot.name)
            caught += 1
        assert caught


class TestShapes:
    def test_a_sum_of_unequal_shapes_raises(self, B):
        one = AlgMatrix(B, (P2s(0),), (P2s(0),), [[B.idempotent("2")]])
        two = AlgMatrix.identity(B, (P1s(0), P2s(0)))
        other = AlgMatrix.identity(B, (P1s(0),))
        for x, y in ((one, two), (two, one), (one, other)):
            with pytest.raises(ConstructionError, match="sum shape"):
                x + y


class TestChainMapEdges:
    """d∘f = f∘d is checked at every degree where source^i and
    target^(i+1) are stored, past the overlap of the two windows."""

    def test_the_lower_edge_is_checked(self, B):
        a = B.arrow_element("a")
        x = ProjComplex(B, {0: (P1s(1),), 1: (P2s(0),)},
                        {0: AlgMatrix(B, (P2s(0),), (P1s(1),), [[a]])})
        y = ProjComplex(B, {1: (P2s(0),)}, {})
        with pytest.raises(ConstructionError, match="at 0"):
            ProjChainMap(x, y, {1: AlgMatrix.identity(B, y.term(1))})

    def test_the_upper_edge_is_checked(self, B):
        b = B.arrow_element("b")
        x = ProjComplex(B, {0: (P2s(0),)}, {})
        y = ProjComplex(B, {0: (P2s(0),), 1: (P1s(-1),)},
                        {0: AlgMatrix(B, (P1s(-1),), (P2s(0),), [[b]])})
        with pytest.raises(ConstructionError, match="at 0"):
            ProjChainMap(x, y, {0: AlgMatrix.identity(B, x.term(0))})

    def test_a_tail_past_the_cut_is_not_read_as_zero(self, B):
        # identities between a tailed complex and a longer window of it:
        # past the tailed complex's cut its next term is not zero, so the
        # equation there is not checked
        right = ck_p2_complex(B, 8)
        longer = right.materialize(0, 10)
        ProjChainMap(right, longer, identities(B, right))
        c = B.path_element(("a", "b"))
        terms = {-k: (P2s(2 * k),) for k in range(4)}
        left = ProjComplex(B, terms, {-k - 1: AlgMatrix(B, terms[-k], terms[-k - 1], [[c]])
                                      for k in range(3)}, TailSpec(LEFT_TAIL, -2, 1, 2))
        longer = left.materialize(-5, 0)
        ProjChainMap(ProjComplex(B, longer.terms, longer.diffs), left, identities(B, left))


def identities(B, c):
    return {i: AlgMatrix.identity(B, t) for i, t in c.terms.items()}


class TestGaussianReduce:
    def test_identity_pair_cancels(self, B):
        e2 = B.idempotent("2")
        terms = {0: (P2s(0),), 1: (P2s(0),)}
        d = {0: AlgMatrix(B, terms[1], terms[0], [[e2]])}
        red = gaussian_reduce(ProjComplex(B, terms, d, None, "idp"))
        assert red.reduced.is_zero()

    def test_displayed_contractible_complex(self, B):
        ck = ck_p2_complex(B, 10)
        red = reduce_on_window(ck, (0, 8))
        assert red.reduced.is_zero()

    def test_minimality(self, B):
        from jwcat.functors import Setup, koszul_D_on_object
        setup = Setup.create()
        raw = koszul_D_on_object(setup, projective(setup.B, "2").shift(-2))
        red = gaussian_reduce(raw)
        for d in red.reduced.diffs.values():
            assert d.all_entries_in_radical()

    def test_witnesses(self, B):
        ck = ck_p2_complex(B, 8).materialize(0, 8)
        ck = ProjComplex(B, ck.terms, ck.diffs, None, "ck-window")
        red = gaussian_reduce(ck)
        # F∘G = id on the reduced complex
        FG = red.to_reduced.compose(red.from_reduced)
        for i in red.reduced.terms:
            assert FG.component(i) == AlgMatrix.identity(B, red.reduced.term(i))
        # id - G∘F = d∘h + h∘d on the original
        idm = ProjChainMap.identity(ck)
        GF = red.from_reduced.compose(red.to_reduced)
        assert red.homotopy.witnesses(idm, GF, (0, 7))

    def test_preserves_homology(self, B):
        from jwcat.functors import Setup, koszul_D_on_object
        setup = Setup.create()
        for M in (projective(setup.B, "1"), simple(setup.B, "2").shift(1),
                  projective(setup.B, "2")):
            raw = koszul_D_on_object(setup, M)
            red = gaussian_reduce(raw)
            lo = min(raw.window()[0], red.reduced.window()[0] if not red.reduced.is_zero() else 0)
            hi = max(raw.window()[1], red.reduced.window()[1] if not red.reduced.is_zero() else 0)
            R1, R2 = realize(raw), realize(red.reduced)
            for i in range(lo, hi + 1):
                assert homology(R1, i) == homology(R2, i)


class TestTails:
    def test_detect_left_tail(self, B):
        from jwcat.functors import Setup, P_on_object
        setup = Setup.create()
        p = P_on_object(setup, projective(setup.B, "1"), depth=10)
        t = detect_tail(p, LEFT_TAIL)
        assert t is not None and t.period == 1 and t.shift == 2

    def test_materialize_extends_pattern(self, B):
        from jwcat.functors import Setup, P_on_object
        setup = Setup.create()
        p = P_on_object(setup, projective(setup.B, "1"), depth=6)
        ext = p.materialize(-12, 0)
        assert ext.term(-12) == (P2s(25),)
        assert ext.diff(-12).entries[0][0] == setup.B.path_element(("a", "b"))

    def test_seam_check_rejects_broken_pattern(self, B):
        c = B.path_element(("a", "b"))
        terms = {i: (P2s(-2 * i),) for i in range(0, 6)}
        diffs = {i: AlgMatrix(B, terms[i + 1], terms[i], [[c]]) for i in range(5)}
        diffs[3] = AlgMatrix(B, terms[4], terms[3], [[c.scale(2)]])
        with pytest.raises(Exception):
            ProjComplex(B, terms, diffs, TailSpec(RIGHT_TAIL, 1, 1, -2), "broken")


class TestHomotopyCategory:
    def test_iso_reflexive(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        v = iso_in_homotopy_category(res, res, window=(-3, 1))
        assert v.value == "true"

    def test_iso_symmetric_on_corpus(self, B):
        from jwcat.functors import Setup, koszul_D_on_object
        setup = Setup.create()
        x = koszul_D_on_object(setup, projective(setup.B, "2"))
        y = projective_resolution(simple(setup.B, "1"), 4).shift(-2, -2)
        v1 = iso_in_homotopy_category(x, y, window=(-1, 3))
        v2 = iso_in_homotopy_category(y, x, window=(-1, 3))
        assert v1.value == "true" and v2.value == "true"

    def test_different_projectives_not_iso(self, B):
        x = ProjComplex.from_summand(B, "1", 0)
        y = ProjComplex.from_summand(B, "2", 0)
        v = iso_in_homotopy_category(x, y, window=(0, 1))
        assert v.value == "false"

    def test_a_window_cut_is_inconclusive(self, B):
        # the clip would drop both inputs and leave two zero complexes
        x = ProjComplex.from_summand(B, "1")
        y = ProjComplex.from_summand(B, "2")
        v = iso_in_homotopy_category(x, y, window=(1, 10))
        assert v.value == "inconclusive"
        assert v.reason == "P(1) has terms outside the window (1, 10)"

    def test_terms_past_the_window_on_a_tail_side_are_reduced(self, B):
        ck = ck_p2_complex(B, 10)
        v = iso_in_homotopy_category(ck, ProjComplex.zero_complex(B), window=(0, 4))
        assert v.value == "true"

    def test_homotopic_reflexive(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        f = ProjChainMap.identity(res)
        v = chain_maps_homotopic(f, f, window=(-3, 1))
        assert v.value == "true"

    def test_multiplication_map_not_nullhomotopic(self, B):
        # the degree-two loop on the big projective, between single-degree
        # complexes: no homotopy space at all
        src = ProjComplex.from_summand(B, "2", 2)
        tgt = ProjComplex.from_summand(B, "2", 0)
        c = B.path_element(("a", "b"))
        f = ProjChainMap(src, tgt, {0: AlgMatrix(B, tgt.term(0), src.term(0), [[c]])})
        zero = ProjChainMap(src, tgt, {})
        v = chain_maps_homotopic(f, zero, window=(0, 1))
        assert v.value == "false"


class TestSignMatch:
    def test_diagonal_sign_recovery(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        # flip the sign of the middle summand
        twisted_diffs = {
            -2: res.diffs[-2].scale(-1),
            -1: res.diffs[-1].scale(-1),
        }
        twisted = ProjComplex(B, dict(res.terms), twisted_diffs, None, "twisted")
        ok, signs = match_up_to_diagonal_signs(twisted, res, (-2, 0))
        assert ok
        flips = sum(1 for row in signs.values() for s in row if s == -1)
        assert flips >= 1

    def test_rejects_genuinely_different(self, B):
        res = projective_resolution(simple(B, "1"), 4)
        other_diffs = {
            -2: res.diffs[-2],
            -1: res.diffs[-1].scale(2),
        }
        other = ProjComplex(B, dict(res.terms), other_diffs, None, "scaled")
        ok, _ = match_up_to_diagonal_signs(other, res, (-2, 0))
        assert not ok
