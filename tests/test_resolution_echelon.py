"""Every span, kernel and complement of the resolution layer comes from one
reduced echelon form: a submodule reads its action at the pivots of its
reduced basis, and the generators of a minimal cover are the non-pivot
positions of the radical reduced once. The per-vector solve and the greedy
one-rank-test-per-candidate selection they replaced are kept here as the
references."""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jwcat import resolutions
from jwcat.complexes import WindowTooSmall
from jwcat.exprs import evaluate, parse
from jwcat.functors import Setup
from jwcat.linalg import Matrix, solve_from_columns, unit_vector
from jwcat.modules import GradedModule, ModuleHom, Summand, projective, projective_sum
from jwcat.quiver import ConstructionError
from jwcat.resolutions import minimal_generators, submodule_from_vectors
from test_window_work import APPLIES_P, eval_reference

SETUP = Setup.create()
B = SETUP.B


# ---------------------------------------------------------------------------
# the replaced rules, as references
# ---------------------------------------------------------------------------

def ref_submodule_from_vectors(ambient, vectors, name="K"):
    """Each action image is solved for in the target degree's basis, one
    system per basis vector."""
    alg = ambient.algebra
    bases, labels = {}, {}
    for d, vecs in sorted(vectors.items()):
        if not vecs:
            continue
        R, piv = Matrix.from_rows(vecs).rref()
        basis_rows = [R.data[r] for r in range(len(piv))]
        labs = []
        for row in basis_rows:
            support_labels = {ambient.label(d, j) for j, x in enumerate(row) if x != 0}
            if len(support_labels) != 1:
                raise ConstructionError("submodule basis vector is not label-homogeneous")
            labs.append(support_labels.pop())
        bases[d] = basis_rows
        labels[d] = labs
    basis = {d: tuple(labels[d]) for d in bases}
    action = {}
    for arrow in alg.quiver.arrows:
        g, dg = arrow.name, arrow.degree
        mats = {}
        for d, rows in bases.items():
            tgt_rows = bases.get(d + dg, [])
            m = Matrix(len(tgt_rows), len(rows))
            amb = ambient.act_arrow(g, d)
            for j, vec in enumerate(rows):
                img = amb.apply(vec)
                if all(x == 0 for x in img):
                    continue
                if not tgt_rows:
                    raise ConstructionError("submodule is not action-closed")
                sol = solve_from_columns(lambda c: tgt_rows[c], len(tgt_rows), img)
                if sol is None:
                    raise ConstructionError("submodule is not action-closed")
                for r, x in enumerate(sol):
                    m.data[r][j] = x
            if not m.is_zero():
                mats[d] = m
        if mats:
            action[g] = mats
    sub = GradedModule(alg, basis, action, name=name)
    incl_mats = {d: Matrix(len(ambient.basis.get(d, ())), len(rows),
                           [[rows[j][i] for j in range(len(rows))]
                            for i in range(len(ambient.basis.get(d, ())))])
                 for d, rows in bases.items()}
    return sub, ModuleHom(sub, ambient, 0, incl_mats, f"incl({name})")


def ref_minimal_generators(M):
    """Unit vectors in (vertex, position) order, each taken when a rank
    test shows it independent of the radical and of the ones taken before."""
    gens = []
    for d in M.degrees():
        n = M.dim(d)
        rad_rows = []
        for arrow in M.algebra.quiver.arrows:
            src_d = d - arrow.degree
            if M.dim(src_d) == 0:
                continue
            mat = M.act_arrow(arrow.name, src_d)
            for j in range(mat.ncols):
                rad_rows.append([mat.data[r][j] for r in range(n)])
        if rad_rows:
            R, piv = Matrix.from_rows(rad_rows).rref()
        else:
            R, piv = Matrix(0, n), []
        order = sorted(range(n), key=lambda k: (
            M.algebra.quiver.vertices.index(M.label(d, k)), k))
        chosen = []
        span_rows = [R.data[r][:] for r in range(len(piv))]
        rank = len(piv)
        for k in order:
            if rank + len(chosen) >= n:
                break
            cand = unit_vector(n, k)
            trial = span_rows + [c[:] for c in chosen] + [cand]
            if Matrix.from_rows(trial).rank() == rank + len(chosen) + 1:
                chosen.append(cand)
        for vec in chosen:
            gens.append((d, next(j for j, x in enumerate(vec) if x != 0), vec))
    return gens


# ---------------------------------------------------------------------------
# the inputs the projector's resolutions meet
# ---------------------------------------------------------------------------

def submodule_data(result):
    sub, incl = result
    return sub.to_json(), {d: m.data for d, m in incl.mats.items()}


_RECORDED = {}


def recorded_inputs():
    """The distinct inputs of ``submodule_from_vectors`` and
    ``minimal_generators`` over every resolution that the pool's P
    expressions make at N = 12, with the resolutions of the five standard
    B-modules, whose covers meet both vertices of B."""
    if not _RECORDED:
        subs, gens = {}, {}
        sub_fn, gen_fn = submodule_from_vectors, minimal_generators

        def record_sub(ambient, vectors, name="K"):
            key = json.dumps([ambient.to_json(), name, {
                d: [[str(x) for x in v] for v in vs] for d, vs in vectors.items()}])
            subs.setdefault(key, (ambient, vectors, name))
            return sub_fn(ambient, vectors, name)

        def record_gen(M):
            gens.setdefault(json.dumps(M.to_json()), M)
            return gen_fn(M)

        exprs = sorted(e for e in eval_reference()["expressions"] if APPLIES_P.search(e))
        with mock.patch.object(resolutions, "submodule_from_vectors", record_sub), \
                mock.patch.object(resolutions, "minimal_generators", record_gen):
            for expr in exprs:
                try:
                    evaluate(SETUP, parse(expr), (0, 12), 25)
                except WindowTooSmall:
                    pass
            for M in SETUP.standard_modules().values():
                resolutions.projective_resolution(M, 8)
        _RECORDED.update(exprs=exprs, subs=list(subs.values()), gens=list(gens.values()))
    return _RECORDED


class TestAgainstTheReferences:
    def test_submodules_of_the_pool(self):
        rec = recorded_inputs()
        assert len(rec["exprs"]) == 291
        labels = set()
        for ambient, vectors, name in rec["subs"]:
            got = submodule_from_vectors(ambient, vectors, name)
            assert submodule_data(got) == \
                submodule_data(ref_submodule_from_vectors(ambient, vectors, name))
            labels |= {lab for labs in got[0].basis.values() for lab in labs}
        assert labels == {"1", "2", "*"}

    def test_generators_of_the_pool(self):
        rec = recorded_inputs()
        labels = set()
        for M in rec["gens"]:
            assert minimal_generators(M) == ref_minimal_generators(M)
            labels |= {lab for labs in M.basis.values() for lab in labs}
        assert labels == {"1", "2", "*"}


@st.composite
def radical_layers(draw):
    """A module over B that is nonzero in degrees 0 and 1 only, with random
    vertex labels and random action matrices from degree 0 to degree 1: the
    radical of degree 1 is a random row space. Generators read the action
    and labels only, so the module is not validated."""
    dims = [draw(st.integers(1, 4)), draw(st.integers(1, 6))]
    basis = {d: tuple(draw(st.lists(st.sampled_from(("1", "2")), min_size=n, max_size=n)))
             for d, n in enumerate(dims)}
    entry = st.integers(-2, 2)
    action = {g: {0: Matrix(dims[1], dims[0],
                            draw(st.lists(st.lists(entry, min_size=dims[0], max_size=dims[0]),
                                          min_size=dims[1], max_size=dims[1])))}
              for g in ("a", "b")}
    return GradedModule(B, basis, action, validate=False)


@settings(max_examples=200, deadline=None)
@given(radical_layers())
def test_the_greedy_complement_is_the_reversed_pivot_complement(M):
    assert minimal_generators(M) == ref_minimal_generators(M)


# ---------------------------------------------------------------------------
# the two checks of submodule_from_vectors
# ---------------------------------------------------------------------------

def test_a_vector_across_two_vertices_is_rejected():
    ambient = projective_sum(B, (Summand("1", 0), Summand("2", 0)))
    assert ambient.basis[0] == ("1", "2")
    with pytest.raises(ConstructionError, match="not label-homogeneous"):
        submodule_from_vectors(ambient, {0: [[Fraction(1), Fraction(1)]]})


@pytest.mark.parametrize("degree_one", [False, True])
def test_a_span_that_the_action_leaves_is_rejected(degree_one):
    """The generator of the first P(1) spans degree 0; its arrow image is
    the degree-1 path of that summand, which the span misses, whether the
    span has nothing in degree 1 or only the path of the second summand."""
    ambient = projective_sum(B, (Summand("1", 0), Summand("1", 0)))
    assert ambient.dim(0) == 2 and ambient.dim(1) == 2
    vectors = {0: [unit_vector(2, 0)]}
    if degree_one:
        vectors[1] = [unit_vector(2, 1)]
    with pytest.raises(ConstructionError, match="not action-closed"):
        submodule_from_vectors(ambient, vectors)
    vectors[1] = [unit_vector(2, 0)]
    sub, _incl = submodule_from_vectors(ambient, vectors)
    assert sub == projective(B, "1")
