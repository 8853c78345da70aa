"""One module-map rule and one vertex-block rule.

A module map is a matrix per degree whose nonzero entries join basis vectors
of the same vertex label and which commutes with every arrow: validation and
``hom_space`` read that one rule. Kernels, homology and π read a map one label
block at a time. The digests below pin hom-space bases, resolution homology,
π and the balanced tensor on the standard modules, as the code computed them
before these rules; the hypothesis test compares the two readers of the
module-map rule on random candidate maps.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from jwcat.complexes import homology, realize
from jwcat.functors import Setup
from jwcat.linalg import Matrix
from jwcat.modules import (ModuleHom, apply_iota, apply_pi, apply_pi_hom,
                           hom_space, left_multiplication_hom, simple,
                           tensor_with_bimodule)
from jwcat.quiver import ConstructionError, build_theta
from jwcat.resolutions import kernel_submodule, projective_resolution

SETUP = Setup.create()
B, C = SETUP.B, SETUP.C
MODULES = SETUP.standard_modules()
SHIFTS = range(-2, 3)


def hom_data(f):
    return [f.degree, [[d, [[str(x) for x in row] for row in m.data]]
                       for d, m in sorted(f.mats.items())]]


def digest(items):
    return hashlib.sha256(json.dumps(items, ensure_ascii=False).encode()).hexdigest()


def hom_space_items():
    """Every hom-space basis between the standard modules, the target
    shifted by -2..2: 125 spaces."""
    return [[m, n, r, [hom_data(h) for h in hom_space(M, N.shift(r))]]
            for m, M in MODULES.items() for n, N in MODULES.items() for r in SHIFTS]


def homology_items():
    """The homology of the resolutions of the standard modules and of C's
    simple, in every stored degree."""
    mods = dict(MODULES, **{"L(*)": simple(C, "*")})
    out = []
    for name, M in mods.items():
        res = projective_resolution(M, 6)
        R = realize(res)
        lo, hi = res.window()
        out.append([name, [[i, sorted([d, v, k] for (d, v), k in homology(R, i).items())]
                           for i in range(lo - 1, hi + 2)]])
    return out


def pi_items():
    """π of the shifted standard modules, of the generator maps and of the
    degree-0 maps between standard modules."""
    out = [apply_pi(M.shift(r), C).to_json() for M in MODULES.values() for r in SHIFTS]
    for name, (z, src, tgt) in SETUP.generator_maps().items():
        out.append([name, hom_data(apply_pi_hom(left_multiplication_hom(src, tgt, z), C))])
    for M in MODULES.values():
        for N in MODULES.values():
            out += [hom_data(apply_pi_hom(h, C)) for h in hom_space(M, N, 0)]
    return out


def tensor_items():
    """The translation-bimodule tensor of the shifted standard modules, and
    ι of their π images."""
    theta = build_theta(B)
    return [[tensor_with_bimodule(M.shift(r), theta).to_json(),
             apply_iota(apply_pi(M, C).shift(r), B).to_json()]
            for M in MODULES.values() for r in SHIFTS]


ITEMS = {"hom spaces": hom_space_items, "homology": homology_items,
         "pi": pi_items, "tensor": tensor_items}
DIGESTS = {
    "hom spaces": "d9f35d4887baa223ecd1f62020b23ab1927772692f046226a7f4875c9111f7a9",
    "homology": "85e0bac49eb92d7cb9c481e8a18e006abc91ec3d6e909254ade2d0a94d140e9c",
    "pi": "1bad8ba62927a1924305fb7eb63ebab509e655fdc41a467403ad24735bb6545c",
    "tensor": "b2a781bdfde7c98304e2701b5534c32f65b28b1c9964422c4c2fdccea90c50f6",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_equal_the_pinned_digests(name):
    assert digest(ITEMS[name]()) == DIGESTS[name]


# ---------------------------------------------------------------------------
# the module-map rule
# ---------------------------------------------------------------------------

def test_a_map_between_different_labels_is_not_a_module_map():
    L1, L2 = MODULES["L(1)"], MODULES["L(2)"]
    assert hom_space(L1, L2) == []
    with pytest.raises(ConstructionError, match="violates vertex labels at degree 0"):
        ModuleHom(L1, L2, 0, {0: Matrix.from_rows([[1]])})


def test_a_map_that_does_not_commute_with_an_arrow():
    P2 = MODULES["P(2)"]
    with pytest.raises(ConstructionError, match="does not commute with a at degree 0"):
        ModuleHom(P2, P2, 0, {0: Matrix.from_rows([[1]])})


def entries(M, N, j):
    """Every entry (d, r, c) of a degree-j map M -> N."""
    return [(d, r, c) for d in M.degrees() for c in range(M.dim(d))
            for r in range(N.dim(d + j))]


@st.composite
def candidate_maps(draw):
    """A degree-j matrix M -> N: a random combination of the hom-space
    basis, which lives on the entries that join equal labels, perturbed or
    not at one entry, which may join different labels."""
    M = MODULES[draw(st.sampled_from(sorted(MODULES)))]
    N = MODULES[draw(st.sampled_from(sorted(MODULES)))].shift(draw(st.integers(-2, 2)))
    j = draw(st.integers(-3, 3))
    slots = entries(M, N, j)
    basis = [[h.mat(d).data[r][c] for d, r, c in slots] for h in hom_space(M, N, j)]
    vec = [0] * len(slots)
    for b in basis:
        k = draw(st.integers(-2, 2))
        vec = [x + k * y for x, y in zip(vec, b)]
    if slots and draw(st.booleans()):
        vec[draw(st.integers(0, len(slots) - 1))] += draw(st.integers(1, 2))
    return M, N, j, slots, basis, vec


@settings(max_examples=200, deadline=None)
@given(candidate_maps())
def test_a_matrix_validates_exactly_when_it_lies_in_the_hom_space(case):
    M, N, j, slots, basis, vec = case
    mats = {}
    for (d, r, c), x in zip(slots, vec):
        mats.setdefault(d, Matrix(N.dim(d + j), M.dim(d))).data[r][c] += x
    in_span = Matrix.from_rows(basis + [vec]).rank() == len(basis) if slots else True
    try:
        ModuleHom(M, N, j, mats)
        valid = True
    except ConstructionError:
        valid = False
    assert valid == in_span


# ---------------------------------------------------------------------------
# the vertex-block rule
# ---------------------------------------------------------------------------

def test_a_block_joins_the_positions_of_one_label():
    P1, P2 = MODULES["P(1)"], MODULES["P(2)"]
    a = left_multiplication_hom(P1.shift(1), P2, B.arrow_element("a"))
    assert P2.positions(1, "1") == [0] and P2.positions(1, "2") == []
    assert a.block(1, "1") == Matrix.from_rows([[1]])
    assert a.block(2, "2") == Matrix.from_rows([[1]])
    assert a.block(1, "2") == Matrix(0, 0)


def test_the_kernel_of_a_map_is_read_per_block():
    # the cover P(1) -> L(1) has kernel the radical of P(1), labelled 2
    cover = hom_space(MODULES["P(1)"], MODULES["L(1)"], 0)[0]
    K, incl = kernel_submodule(cover)
    assert K.graded_dims_by_vertex() == {(1, "2"): 1}
    assert cover.compose(incl).is_zero()
