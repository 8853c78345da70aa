"""A bimodule is its basis and two product rules.

The references below are the code that read the bimodules before they kept
their rules: actions walked generator matrices one vector at a time, a
bimodule map was saturated over unit vectors, and the balanced tensor acted
on unit vectors. The tests compare them with the rule-based code on every
(basis path, basis vector) of the three bimodules, on the structure maps,
and on the tensor and ι outputs; the error tests reach every check of
``GradedBimodule``, of ``_bimodule_map_from_generator_images`` and of
``verify_bimodule_map``.
"""

from fractions import Fraction

import pytest

from jwcat.functors import Setup
from jwcat.linalg import Matrix, unit_vector
from jwcat.modules import (GradedModule, apply_iota, apply_pi, injective2,
                           p2_as_left_c_bimodule, projective, simple,
                           tensor_with_bimodule)
from jwcat.quiver import (STRUCTURE_MAPS, BimodBasisVector, BimoduleMap,
                          ConstructionError, GradedBimodule, Path, PathAlgebra,
                          _bimodule_map_from_generator_images, algebra_as_bimodule,
                          bimodule_maps_alpha_beta_gamma, build_C, build_theta,
                          verify_bimodule_map, zigzag_quiver)

SETUP = Setup.create()
B, C = SETUP.B, SETUP.C
THETA = build_theta(B)
REG = algebra_as_bimodule(B)
P2BIM = p2_as_left_c_bimodule(B, C)
BIMODULES = {"theta": THETA, "B": REG, "P(2)bim": P2BIM}
MODULES = {"P(1)": projective(B, "1"), "P(2)": projective(B, "2"),
           "L(1)": simple(B, "1"), "L(2)": simple(B, "2"), "I(2)": injective2(B)}
SHIFTS = range(-3, 4)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_left_act(W, elem, vec):
    out = [Fraction(0)] * W.dim()
    for p, c in elem.terms.items():
        img = vec
        if p.is_trivial():
            img = W.left_action["e(%s)" % p.vertex].apply(vec)
        else:
            for name in reversed(p.arrows):
                img = W.left_action[name].apply(img)
        out = [o + c * x for o, x in zip(out, img)]
    return out


def ref_right_act(W, vec, elem):
    out = [Fraction(0)] * W.dim()
    for p, c in elem.terms.items():
        img = vec
        if p.is_trivial():
            img = W.right_action["e(%s)" % p.vertex].apply(vec)
        else:
            # m·(α1...αl) = (m·α1)·α2... : α1 applies first
            for name in p.arrows:
                img = W.right_action[name].apply(img)
        out = [o + c * x for o, x in zip(out, img)]
    return out


def _single_index(vec):
    nz = [i for i, c in enumerate(vec) if c != 0]
    if len(nz) == 1 and vec[nz[0]] == 1:
        return nz[0]
    return None


def _assign(mat, col, img):
    out = Matrix(mat.nrows, mat.ncols, [row[:] for row in mat.data])
    for r in range(mat.nrows):
        out.data[r][col] = img[r]
    return out


def ref_bimodule_map_from_generator_images(source, target, gen_images, degree, name):
    """The saturation loop over unit vectors; ``gen_images`` is keyed by
    basis position."""
    Balg = source.left_algebra
    n_src, n_tgt = source.dim(), target.dim()
    mat = Matrix(n_tgt, n_src)
    assigned = [False] * n_src
    for gi, img in gen_images.items():
        mat = _assign(mat, gi, img)
        assigned[gi] = True
    changed = True
    while changed:
        changed = False
        for i in range(n_src):
            if not assigned[i]:
                continue
            col = [mat.data[r][i] for r in range(n_tgt)]
            for a in Balg.quiver.arrows:
                for src_act, tgt_act in ((source.left_action, target.left_action),
                                         (source.right_action, target.right_action)):
                    j = _single_index(src_act[a.name].apply(unit_vector(n_src, i)))
                    if j is not None and not assigned[j]:
                        mat = _assign(mat, j, tgt_act[a.name].apply(col))
                        assigned[j] = True
                        changed = True
    if not all(assigned):
        raise ConstructionError(f"generators do not generate the bimodule for {name}")
    f = BimoduleMap(source, target, mat, degree, name)
    verify_bimodule_map(f)
    return f


def ref_tensor_with_bimodule(M, W, name=None):
    """The balanced tensor that acts on unit vectors of the bimodule."""
    A = W.left_algebra
    right_alg = W.right_algebra
    pairs, pair_pos = [], {}
    for d in M.degrees():
        for i in range(M.dim(d)):
            for k in range(W.dim()):
                pair_pos[(d, i, k)] = len(pairs)
                pairs.append((d, i, k))
    by_total, pos = {}, {}
    for idx, (d, i, k) in enumerate(pairs):
        idxs = by_total.setdefault(d + W.basis[k].degree, [])
        pos[idx] = len(idxs)
        idxs.append(idx)
    left = {(g, k): ref_left_act(W, A.element({g: Fraction(1)}), unit_vector(W.dim(), k))
            for g in A.basis for k in range(W.dim())}
    rel_rows = {}
    for (d2, i2, k2) in pairs:
        for g in A.basis:
            dg = A.path_degree(g)
            total = d2 + dg + W.basis[k2].degree
            if total not in by_total:
                continue
            row = [Fraction(0)] * len(by_total[total])
            mg = M.act_path(g, d2)
            for r in range(mg.nrows):
                if mg.data[r][i2] != 0:
                    row[pos[pair_pos[(d2 + dg, r, k2)]]] += mg.data[r][i2]
            for kk, c in enumerate(left[(g, k2)]):
                if c != 0:
                    row[pos[pair_pos[(d2, i2, kk)]]] -= c
            if any(x != 0 for x in row):
                rel_rows.setdefault(total, []).append(row)
    reducers, quot_free, basis = {}, {}, {}
    for total, idxs in sorted(by_total.items()):
        reducers[total] = Matrix.from_rows(rel_rows.get(total, [])).rref()
        free = [p for p in range(len(idxs)) if p not in reducers[total][1]]
        quot_free[total] = free
        labels = [W.basis[pairs[idxs[p]][2]].right_vertex for p in free]
        if labels:
            basis[total] = tuple(labels)

    def reduce_vec(total, vec):
        R, piv = reducers[total]
        v = list(vec)
        for r, pc in enumerate(piv):
            if v[pc] != 0:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, R.data[r])]
        return [v[p] for p in quot_free[total]]

    action = {}
    for arrow in right_alg.quiver.arrows:
        gelem = right_alg.arrow_element(arrow.name)
        mats = {}
        for total, free in quot_free.items():
            tgt_total = total + arrow.degree
            if not free or tgt_total not in quot_free or not quot_free[tgt_total]:
                continue
            idxs = by_total[total]
            cols = []
            for p in free:
                d, i, k = pairs[idxs[p]]
                wimg = ref_right_act(W, unit_vector(W.dim(), k), gelem)
                tvec = [Fraction(0)] * len(by_total[tgt_total])
                for kk, c in enumerate(wimg):
                    if c != 0:
                        tvec[pos[pair_pos[(d, i, kk)]]] += c
                cols.append(reduce_vec(tgt_total, tvec))
            m = Matrix(len(quot_free[tgt_total]), len(free),
                       [[cols[j][i] for j in range(len(free))]
                        for i in range(len(quot_free[tgt_total]))])
            if not m.is_zero():
                mats[total] = m
        if mats:
            action[arrow.name] = mats
    return GradedModule(right_alg, basis, action, name=name or f"{M.name}⊗{W.name}")


def ref_apply_iota(M, Balg):
    out = ref_tensor_with_bimodule(M, p2_as_left_c_bimodule(Balg, M.algebra),
                                   name=f"ι({M.name})").shift(1)
    out.name = f"ι({M.name})"
    return out


def assert_same_module(got, want):
    assert got == want
    assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# the rules against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BIMODULES))
def test_act_equals_the_vector_walk_on_every_basis_pair(name):
    W = BIMODULES[name]
    for alg, left in ((W.left_algebra, True), (W.right_algebra, False)):
        for q in alg.basis:
            elem = alg.element({q: Fraction(1)})
            mat = W.act(elem, left)
            for k in range(W.dim()):
                e = unit_vector(W.dim(), k)
                want = ref_left_act(W, elem, e) if left else ref_right_act(W, e, elem)
                assert mat.apply(e) == want, (name, q.word(), k, left)


@pytest.mark.parametrize("name", sorted(BIMODULES))
def test_act_on_a_combination_is_the_combination_of_actions(name):
    W = BIMODULES[name]
    for alg, left in ((W.left_algebra, True), (W.right_algebra, False)):
        elem = alg.element({q: Fraction(i + 1, 3) for i, q in enumerate(alg.basis)})
        for k in range(W.dim()):
            e = unit_vector(W.dim(), k)
            want = ref_left_act(W, elem, e) if left else ref_right_act(W, e, elem)
            assert W.act(elem, left).apply(e) == want


def test_structure_maps_equal_the_saturated_maps():
    maps = bimodule_maps_alpha_beta_gamma(B, THETA)
    for f, (name, images) in zip(maps, STRUCTURE_MAPS.items()):
        source = f.source
        assert (source is THETA) == (name != "alpha")
        gen_images = {}
        for g, terms in images.items():
            img = [Fraction(0)] * THETA.dim()
            for coef, x, y in terms:
                img[THETA.index[(x, y)]] += coef
            gen_images[source.index[g]] = img
        want = ref_bimodule_map_from_generator_images(source, THETA, gen_images,
                                                      f.degree, name)
        assert f.matrix == want.matrix


@pytest.mark.parametrize("name", sorted(MODULES))
def test_tensor_with_theta_equals_the_unit_vector_tensor(name):
    for r in SHIFTS:
        M = MODULES[name].shift(r)
        got = tensor_with_bimodule(M, THETA)
        assert_same_module(got, ref_tensor_with_bimodule(M, THETA))
        assert_same_module(tensor_with_bimodule(got, THETA),
                           ref_tensor_with_bimodule(got, THETA))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_iota_equals_the_unit_vector_tensor(name):
    piM = apply_pi(MODULES[name], C)
    for r in SHIFTS:
        assert_same_module(apply_iota(piM.shift(r), B), ref_apply_iota(piM.shift(r), B))


def test_regular_bimodule_tensor_is_the_identity_functor():
    for M in MODULES.values():
        got = tensor_with_bimodule(M, REG)
        assert_same_module(got, ref_tensor_with_bimodule(M, REG))
        assert got.graded_dims_by_vertex() == M.graded_dims_by_vertex()


# ---------------------------------------------------------------------------
# every check of the bimodule layer fails on a malformed rule or image
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", ["left", "right"])
def test_an_idempotent_that_is_not_the_label_projection(side):
    left, right = THETA.left, THETA.right

    def every_idempotent_is_one(rule):
        return lambda key, q: rule(key, q) if q.arrows else key

    if side == "left":
        left = every_idempotent_is_one(left)
    else:
        right = every_idempotent_is_one(right)
    with pytest.raises(ConstructionError,
                       match=rf"{side} idempotent e\(1\) is not the label projection"):
        GradedBimodule(B, B, THETA.index, THETA.basis, left, right)


def test_a_relation_that_does_not_act_as_zero():
    free = PathAlgebra(zigzag_quiver(), [], d_max=2)   # ba survives here
    basis = [BimodBasisVector(p.word(), free.path_degree(p), free.target(p), free.source(p))
             for p in free.basis]
    index = {p: i for i, p in enumerate(free.basis)}
    with pytest.raises(ConstructionError, match="left relation ba does not act as zero"):
        GradedBimodule(B, B, index, basis, lambda p, q: free.mul_paths(q, p), free.mul_paths)


def test_actions_that_do_not_commute():
    # over C: x sends u to v on the left and v to w on the right, so
    # x·(u·x) = 0 but (x·u)·x = w
    Calg = build_C()
    basis = [BimodBasisVector(k, 2 * i, "*", "*") for i, k in enumerate("uvw")]
    index = {k: i for i, k in enumerate("uvw")}
    with pytest.raises(ConstructionError,
                       match="left action of x and right action of x do not commute"):
        GradedBimodule(Calg, Calg, index, basis,
                       lambda k, q: {"u": "v"}.get(k) if q.arrows else k,
                       lambda k, q: {"v": "w"}.get(k) if q.arrows else k)


def test_generators_that_do_not_generate():
    # e(2) alone reaches every path but e(1)
    e2 = Path((), "2")
    img = [Fraction(0)] * THETA.dim()
    for coef, x, y in STRUCTURE_MAPS["alpha"][e2]:
        img[THETA.index[(x, y)]] += coef
    with pytest.raises(ConstructionError,
                       match="generators do not generate the bimodule for alpha"):
        _bimodule_map_from_generator_images(REG, THETA, {e2: img}, 1, "alpha")


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_map_that_is_not_equivariant(side):
    # left multiplication by b commutes with the right action but not with
    # left multiplication by a (ba = 0, ab ≠ 0), and likewise on the right
    mat = (THETA.left_action if side == "left" else THETA.right_action)["b"]
    f = BimoduleMap(THETA, THETA, mat, 1, "f")
    with pytest.raises(ConstructionError, match=f"f fails {side} a-equivariance"):
        verify_bimodule_map(f)
