#!/usr/bin/env python3
"""The semi-infinite bimodule complex, tensored against complexes of
projectives: contractible on the big projective, the signed 2-periodic tower
on the other."""

from jwcat.complexes import ProjComplex, reduce_on_window
from jwcat.functors import CK_on_object, Setup
from jwcat.kclass import euler_class
from jwcat.quiver import (bimodule_maps_alpha_beta_gamma, build_theta,
                          structure_map_on_column)

setup = Setup.create()
B = setup.B

# the structure maps on the first six projector columns: alpha, then beta
# and gamma alternating
by_name = {f.name: f for f in bimodule_maps_alpha_beta_gamma(B, build_theta(B))}
maps = [by_name[structure_map_on_column(k)] for k in range(6)]
print("bimodule complex: regular bimodule, then", len(maps),
      "shifted translation bimodules")
print("consecutive composites vanish:",
      all(g.compose(f).is_zero() for f, g in zip(maps, maps[1:])))
print()

ck2 = CK_on_object(setup, ProjComplex.from_summand(B, "2"), out_window=(0, 12))
print("on P(2), raw:", ck2.pretty()[:90], "...")
red = reduce_on_window(ck2, (0, 10))
print("on P(2), reduced:", red.reduced.pretty(), "(contractible)")
print()

ck1 = CK_on_object(setup, ProjComplex.from_summand(B, "1"), out_window=(0, 12))
print("on P(1):", ck1.pretty())
print("differentials:", [ck1.diff(i).entries[0][0].word() for i in range(4)],
      "... signs alternate with period two")
print("tail:", ck1.tail)
print()
print("class in the inverted-variable completion:")
print("  ", euler_class(ck1, order=17).render())
