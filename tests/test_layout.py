"""The realized basis of a sum of shifted projectives ⊕ P(v)<r>: one path
order and one block layout (``modules.sum_layout``), read both ways by the
entry translations, and one stored P(v) per algebra and vertex.

The direct sum and the balanced tensor each lay out their basis by one rule:
a direct sum lists its summands' labels in order within each degree and acts
by block-diagonal matrices, and the tensor keeps one list of pairs per total
degree and one position per pair. ``reference_direct_sum`` and
``reference_tensor_with_bimodule`` are the code they replaced, an offset
table with an entry-copy loop and a pair index mapped through a second
index; the properties compare them on random modules."""

import json
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.complexes import AlgMatrix, Summand, WindowTooSmall, _allowed_paths
from jwcat.complexes import _alg_matrix_to_hom
from jwcat.exprs import evaluate, parse, render_value
from jwcat.fixtures import load_fixture
from jwcat.functors import Setup
from jwcat.linalg import Matrix
from jwcat.modules import (GradedModule, ModuleHom, apply_pi, direct_sum,
                           injective2, left_multiplication_hom,
                           p2_as_left_c_bimodule, projective, projective_sum,
                           simple, tensor_with_bimodule)
from jwcat.quiver import ConstructionError, Path, build_B, build_C, build_theta
from jwcat.resolutions import _hom_to_alg_matrix
from jwcat.verify import VerificationConfig, _Runner

ALGEBRAS = {"B": build_B(), "C": build_C()}
B_MODULES = [projective(ALGEBRAS["B"], "1"), projective(ALGEBRAS["B"], "2"),
             simple(ALGEBRAS["B"], "1"), simple(ALGEBRAS["B"], "2"),
             injective2(ALGEBRAS["B"])]
C_MODULES = [projective(ALGEBRAS["C"], "*"), simple(ALGEBRAS["C"], "*")] + [
    apply_pi(m, ALGEBRAS["C"]) for m in B_MODULES]
THETA = build_theta(ALGEBRAS["B"])
P2BIM = p2_as_left_c_bimodule(ALGEBRAS["B"], ALGEBRAS["C"])
EVAL_REFERENCE = (FilePath(__file__).resolve().parents[1]
                  / "perfbench" / "reference" / "eval-N24.json")


def reference_offsets(mods):
    """Where each module starts in each degree of their direct sum."""
    offs, running = [], {}
    for m in mods:
        offs.append(dict(running))
        for d in m.degrees():
            running[d] = running.get(d, 0) + m.dim(d)
    return offs


def reference_direct_sum(mods, algebra=None):
    """The direct sum built from a per-summand offset table, copying each
    summand's arrow matrices into place entry by entry."""
    if not mods:
        return GradedModule.zero_module(algebra)
    alg = mods[0].algebra
    degrees = sorted({d for m in mods for d in m.degrees()})
    basis, offsets = {}, []
    for d in degrees:
        labels = []
        for k, m in enumerate(mods):
            if len(offsets) <= k:
                offsets.append({})
            offsets[k][d] = len(labels)
            labels.extend(m.basis.get(d, ()))
        if labels:
            basis[d] = tuple(labels)
    action = {}
    for arrow in alg.quiver.arrows:
        mats = {}
        for d in degrees:
            tot_src = len(basis.get(d, ()))
            tot_tgt = len(basis.get(d + arrow.degree, ()))
            if tot_src == 0 or tot_tgt == 0:
                continue
            m = Matrix(tot_tgt, tot_src)
            for k, mod in enumerate(mods):
                blk = mod.act_arrow(arrow.name, d)
                ro = offsets[k].get(d + arrow.degree, 0)
                co = offsets[k].get(d, 0)
                for i in range(blk.nrows):
                    for j in range(blk.ncols):
                        m.data[ro + i][co + j] = blk.data[i][j]
            if not m.is_zero():
                mats[d] = m
        if mats:
            action[arrow.name] = mats
    return GradedModule(alg, basis, action, name=" ⊕ ".join(m.name for m in mods),
                        validate=False)


def reference_tensor_with_bimodule(M, W):
    """The balanced tensor that indexes its pairs once overall (``pairs``,
    ``pair_pos``) and once more within each total degree (``by_total``,
    ``pos``)."""
    A, right_alg = W.left_algebra, W.right_algebra
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
    gens = [g for g in A.basis if len(g.arrows) <= 1]
    left = {(g, k): W.index.get(W.left(key, g)) for g in gens for key, k in W.index.items()}
    acts = {(g, d): M.act_path(g, d) for g in gens for d in M.degrees()}
    rel_rows = {}
    for (d2, i2, k2) in pairs:
        for g in gens:
            dg = A.path_degree(g)
            total = d2 + dg + W.basis[k2].degree
            if total not in by_total:
                continue
            row = [0] * len(by_total[total])
            mg = acts[(g, d2)]
            for r in range(mg.nrows):
                if mg.data[r][i2] != 0:
                    row[pos[pair_pos[(d2 + dg, r, k2)]]] += mg.data[r][i2]
            j = left[(g, k2)]
            if j is not None:
                row[pos[pair_pos[(d2, i2, j)]]] -= 1
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
        g = Path((arrow.name,))
        right = {k: W.index.get(W.right(key, g)) for key, k in W.index.items()}
        mats = {}
        for total, free in quot_free.items():
            tgt_total = total + arrow.degree
            if not free or tgt_total not in quot_free or not quot_free[tgt_total]:
                continue
            idxs = by_total[total]
            cols = []
            for p in free:
                d, i, k = pairs[idxs[p]]
                tvec = [0] * len(by_total[tgt_total])
                if right[k] is not None:
                    tvec[pos[pair_pos[(d, i, right[k])]]] = 1
                cols.append(reduce_vec(tgt_total, tvec))
            m = Matrix(len(quot_free[tgt_total]), len(free),
                       [[cols[j][i] for j in range(len(free))]
                        for i in range(len(quot_free[tgt_total]))])
            if not m.is_zero():
                mats[total] = m
        if mats:
            action[arrow.name] = mats
    return GradedModule(right_alg, basis, action, name=f"{M.name}⊗{W.name}")


def assert_same_layout(got, want):
    """The same basis labels, action matrices and name."""
    assert got.basis == want.basis
    assert got.action == want.action
    assert got.name == want.name and got.to_json() == want.to_json()


def shifted_lists(mods, max_size):
    return st.lists(st.builds(lambda m, r: m.shift(r), st.sampled_from(mods),
                              st.integers(-3, 3)), max_size=max_size)


def reference_realization(m: AlgMatrix):
    """The realized map of m built block by block: one left multiplication
    hom per nonzero entry between shifted projectives, copied into the
    direct sums at their offsets."""
    alg = m.algebra
    src_mods = [projective(alg, s.vertex).shift(s.shift) for s in m.cols]
    tgt_mods = [projective(alg, s.vertex).shift(s.shift) for s in m.rows]
    src, tgt = direct_sum(src_mods, alg), direct_sum(tgt_mods, alg)
    src_off, tgt_off = reference_offsets(src_mods), reference_offsets(tgt_mods)
    mats = {}
    for bi, tm in enumerate(tgt_mods):
        for bj, sm in enumerate(src_mods):
            z = m.entries[bi][bj]
            if z.is_zero():
                continue
            blk = left_multiplication_hom(sm, tm, z)
            assert blk.degree == 0
            for d, b in blk.mats.items():
                big = mats.setdefault(d, Matrix(tgt.dim(d), src.dim(d)))
                for r in range(b.nrows):
                    for c in range(b.ncols):
                        big.data[tgt_off[bi].get(d, 0) + r][src_off[bj].get(d, 0) + c] \
                            += b.data[r][c]
    return src, tgt, ModuleHom(src, tgt, 0, mats, "d", validate=False)


@st.composite
def alg_matrices(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    summands = st.lists(st.builds(Summand, st.sampled_from(alg.quiver.vertices),
                                  st.integers(-3, 3)), min_size=1, max_size=4)
    rows, cols = tuple(draw(summands)), tuple(draw(summands))
    entries = [[alg.element({p: draw(st.integers(-2, 2))
                             for p in _allowed_paths(alg, r, c)})
                for c in cols] for r in rows]
    return AlgMatrix(alg, rows, cols, entries)


class TestSumLayout:
    @settings(max_examples=200, deadline=None)
    @given(alg_matrices())
    def test_entry_translations_invert_each_other(self, m):
        alg = m.algebra
        src, tgt = projective_sum(alg, m.cols), projective_sum(alg, m.rows)
        f = _alg_matrix_to_hom(m, src, tgt, alg)
        assert _hom_to_alg_matrix(f, m.cols, m.rows, alg) == m

    @settings(max_examples=200, deadline=None)
    @given(alg_matrices())
    def test_realization_matches_blockwise_reference(self, m):
        alg = m.algebra
        ref_src, ref_tgt, ref = reference_realization(m)
        src, tgt = projective_sum(alg, m.cols), projective_sum(alg, m.rows)
        assert src == ref_src and tgt == ref_tgt
        assert (src.name, tgt.name) == (ref_src.name, ref_tgt.name)
        f = _alg_matrix_to_hom(m, src, tgt, alg)
        assert f == ref and set(f.mats) == set(ref.mats)

    def test_block_not_of_degree_zero_is_rejected(self):
        B = ALGEBRAS["B"]
        t = (Summand("2", 0),)
        m = AlgMatrix(B, t, t, [[B.path_element(("a", "b"))]], validate=False)
        with pytest.raises(ConstructionError, match="not degree 0"):
            _alg_matrix_to_hom(m, projective_sum(B, t), projective_sum(B, t), B)


class TestSumAndTensorLayout:
    @settings(max_examples=100, deadline=None)
    @given(mods=shifted_lists(B_MODULES, 5))
    def test_direct_sum_of_b_modules_matches_the_offset_table(self, mods):
        B = ALGEBRAS["B"]
        assert_same_layout(direct_sum(mods, B), reference_direct_sum(mods, B))

    @settings(max_examples=100, deadline=None)
    @given(mods=shifted_lists(C_MODULES, 5))
    def test_direct_sum_of_c_modules_matches_the_offset_table(self, mods):
        C = ALGEBRAS["C"]
        assert_same_layout(direct_sum(mods, C), reference_direct_sum(mods, C))

    @settings(max_examples=40, deadline=None)
    @given(mods=shifted_lists(B_MODULES, 3))
    def test_tensor_with_theta_matches_the_two_indexes(self, mods):
        M = direct_sum(mods, ALGEBRAS["B"])
        assert_same_layout(tensor_with_bimodule(M, THETA),
                           reference_tensor_with_bimodule(M, THETA))

    @settings(max_examples=40, deadline=None)
    @given(mods=shifted_lists(C_MODULES, 3))
    def test_tensor_with_p2_matches_the_two_indexes(self, mods):
        M = direct_sum(mods, ALGEBRAS["C"])
        assert_same_layout(tensor_with_bimodule(M, P2BIM),
                           reference_tensor_with_bimodule(M, P2BIM))


class TestStoredProjectives:
    def test_one_module_per_algebra_and_vertex(self):
        for alg in ALGEBRAS.values():
            for v in alg.quiver.vertices:
                assert projective(alg, v) is projective(alg, v)
        other = build_B()
        assert projective(other, "2") is not projective(ALGEBRAS["B"], "2")
        assert projective(other, "2").algebra is other

    def test_stored_module_survives_its_users(self):
        runner = _Runner(VerificationConfig(window=10))
        B = runner.setup.B
        P2 = projective(B, "2")
        injective2(B)
        report = runner.run()
        assert all(c.verdict == "pass" for c in report.checks)
        assert projective(B, "2") is P2 and P2.name == "P(2)"
        _kind, fixture = load_fixture("module_p2")
        assert P2.to_json() == fixture.to_json()

    def test_stored_generators(self):
        B = ALGEBRAS["B"]
        assert B.idempotent("1") is B.idempotent("1")
        assert B.arrow_element("a") is B.arrow_element("a")
        assert B.arrow_element("b").terms == B.path_element("b").terms
        with pytest.raises(KeyError):
            B.idempotent("3")
        with pytest.raises(KeyError):
            B.arrow_element("z")


def test_unsuffixed_expressions_render_as_the_reference():
    """The 80 unsuffixed expressions of the benchmark pool that are not
    nested CK give the outcome and rendered text recorded in the benchmark
    reference at N=24."""
    ref = json.loads(EVAL_REFERENCE.read_text())
    window, order = ref["window"], ref["order"]
    exprs = {e: v for e, v in ref["expressions"].items()
             if e == v["base"] and not e.startswith("CK(CK(")}
    assert len(exprs) == 80
    setup = Setup.create()
    mismatched = []
    for expr, want in sorted(exprs.items()):
        try:
            got = ("value", render_value(evaluate(setup, parse(expr), (0, window), order)))
        except WindowTooSmall as exc:
            got = ("inconclusive", str(exc))
        if got != (want["outcome"], want["text"]):
            mismatched.append(expr)
    assert mismatched == []
