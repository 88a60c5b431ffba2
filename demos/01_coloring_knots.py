"""
Telling knots apart by counting colorings
=========================================

A diagram coloring assigns a quandle element to every arc so that each
crossing is consistent.  The number of colorings does not depend on the
diagram, only on the knot, so two diagrams with different counts are
genuinely different knots.
"""

from knotforge import (
    count_colorings,
    dihedral,
    list_colorings,
    parse_pd,
    tetrahedral,
)

# the two smallest nontrivial knots plus the unknot for scale
unknot = parse_pd("U")
trefoil = parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
figure8 = parse_pd("X[1,4,2,5];X[3,7,4,6];X[5,8,6,1];X[7,3,8,2]")

r3 = dihedral(3)
qs4 = tetrahedral()

print("three-colorings (dihedral R3):")
for name, d in (("unknot", unknot), ("trefoil", trefoil),
                ("figure8", figure8)):
    c = count_colorings(d, r3)
    print("  %-8s total %2d, nontrivial %d" % (name, c.total, c.nontrivial))

# The trefoil stands out: 9 vs 3.  The figure-eight knot admits only
# the constant colorings, so R3 cannot separate it from the unknot.
# A bigger quandle can.

print("\ntetrahedral colorings (QS4):")
for name, d in (("unknot", unknot), ("figure8", figure8)):
    c = count_colorings(d, qs4)
    print("  %-8s total %2d, nontrivial %d" % (name, c.total, c.nontrivial))

# What does a nontrivial coloring actually look like?  One quandle
# element per arc, arcs numbered by their first edge.
print("\na few explicit trefoil three-colorings:")
for coloring in list_colorings(trefoil, r3, limit=5):
    print("  arcs ->", coloring)
