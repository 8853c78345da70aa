"""The realized basis of a sum of shifted projectives ⊕ P(v)<r>: one path
order and one block layout (``modules.sum_layout``), read both ways by the
entry translations, and one stored P(v) per algebra and vertex."""

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
from jwcat.modules import (ModuleHom, direct_sum, injective2,
                           left_multiplication_hom, projective, projective_sum)
from jwcat.quiver import ConstructionError, build_B, build_C
from jwcat.resolutions import _hom_to_alg_matrix
from jwcat.verify import VerificationConfig, _Runner

ALGEBRAS = {"B": build_B(), "C": build_C()}
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
