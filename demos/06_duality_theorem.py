#!/usr/bin/env python3
"""The headline comparison: the duality functor intertwines the two projector
constructions, on objects and on the generator maps."""

from jwcat.complexes import (iso_in_homotopy_category,
                             maps_agree_under_identification, reduce_on_window)
from jwcat.functors import (CK_on_map, CK_on_object, P_on_module_map,
                            P_on_object, Setup, koszul_D_on_map,
                            koszul_D_on_object, projector_depth)
from jwcat.modules import left_multiplication_hom, projective

setup = Setup.create()
B = setup.B
N = 12
w, cmp_w = (0, N), (0, N - 2)


# objects
for v in ("2", "1"):
    dp = koszul_D_on_object(setup, P_on_object(setup, projective(B, v),
                                               depth=projector_depth(w)),
                            out_window=w)
    ckd = CK_on_object(setup, koszul_D_on_object(setup, projective(B, v)),
                       out_window=w)
    verdict = iso_in_homotopy_category(dp, ckd, window=w)
    print(f"dual∘projector(P({v})) ≅ projector∘dual(P({v})):", verdict.value)

# maps
P1, P2 = projective(B, "1"), projective(B, "2")
cases = {
    "c": (B.path_element(("a", "b")), P2.shift(2), P2),
    "a": (B.arrow_element("a"), P1.shift(1), P2),
    "b": (B.arrow_element("b"), P2.shift(1), P1),
}
for name, (z, src, tgt) in cases.items():
    f0 = left_multiplication_hom(src, tgt, z, name)
    Pz = P_on_module_map(setup, f0, depth=projector_depth(w))
    DPz = koszul_D_on_map(setup, Pz, out_window=w)
    Dz = koszul_D_on_map(setup, f0, out_window=w)
    CKDz = CK_on_map(setup, Dz, out_window=w)
    red = [reduce_on_window(c, cmp_w)
           for c in (DPz.source, DPz.target, CKDz.source, CKDz.target)]
    lhs = red[1].to_reduced.compose(DPz).compose(red[0].from_reduced)
    rhs = red[3].to_reduced.compose(CKDz).compose(red[2].from_reduced)
    verdict = maps_agree_under_identification(lhs, rhs, cmp_w)
    print(f"on the map {name}: {verdict.value} ({verdict.reason})")
