"""
Positive spectral curvature is not preserved by the zigzag product
==================================================================

Both factors below are as positively curved as possible: the 6-cube has
rho = 2 at every vertex, and the 6-cycle is flat.  Their zigzag product
(walk one cycle step, flip the cube coordinate the cycle position names,
walk another cycle step) is 4-regular and triangle-free, yet its
spectral curvature is negative everywhere and one of its edges carries
transport curvature -1/4.  Positivity of either curvature is therefore
not a property the product respects.
"""

from graphcurvature import (
    cd_curvature,
    classify_vertex,
    extract_ball,
    ollivier_kappa,
)
from graphcurvature.families import cycle, hypercube, zigzag

cube = hypercube(6)
ring = cycle(6)
g = zigzag(cube, ring)
print(f"{cube.name} (rho = 2 everywhere) zigzag {ring.name} (flat):")
print(f"  {len(g.vertices)} vertices, 4-regular: "
      f"{all(g.degree(v) == 4 for v in g.vertices)}")

x = g.resolve_vertex("(000000,1)")
print(f"\nneighbors of {g.label(x)}:")
for y in g.neighbors(x):
    print(f"  {g.label(y)}")

ball = extract_ball(g, x)
verdict = classify_vertex(g, ball)
print(f"\nclass: {verdict.structure_class.name}, N = {verdict.N}")
print("non-link counts per neighbor:")
for y, miss in sorted(verdict.profile.nonlink_counts.items(),
                      key=lambda kv: g.label(kv[0])):
    print(f"  {g.label(y)}: fails to link {miss} of the other 3")

rho = cd_curvature(ball).rho
print(f"\nrho at {g.label(x)} = {rho:.6f}  (exactly -sqrt(2))")

# the edge that moves two cycle steps after flipping coordinate 2
y = g.resolve_vertex("(010000,3)")
print(f"kappa on ({g.label(x)}, {g.label(y)}) = {ollivier_kappa(g, x, y)}")

print("\nSo a product of a rho = 2 graph and a flat graph fails even")
print("the nonnegative version of the curvature-dimension condition,")
print("and does so at every vertex.")
