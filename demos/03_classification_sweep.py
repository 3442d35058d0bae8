"""
Predicting curvature signs from local structure alone
=====================================================

For regular graphs with no triangle and no 2x3 biclique, counting how
many neighbors each neighbor fails to "link" to (via a common neighbor
other than the base) determines the sign of both curvatures.  N = max
non-link count: N = 0 forces rho = 2, N = 1 forces rho = 0, N >= 2
forces rho < 0, with matching edge-curvature sign predictions.  This
sweep puts the verdicts next to the measured values.
"""

from graphcurvature import (
    cd_curvature,
    classify_vertex,
    extract_ball,
    ollivier_kappa,
)
from graphcurvature.families import (
    complete_bipartite,
    complete_graph,
    cycle,
    flip_graph,
    hypercube,
    petersen,
    regular_tree,
)

graphs = [
    hypercube(4),
    complete_bipartite(3),
    cycle(6),
    petersen(),
    flip_graph(6),
    regular_tree(3, 4),
    complete_graph(4),
]

hdr = f"{'graph':21s} {'class':15s} {'N':>2s} {'predicted rho':>14s} {'rho':>8s} {'kappa':>6s}"
print(hdr)
print("-" * len(hdr))
for g in graphs:
    x = next(v for v in g.vertices if g.two_ball_complete(v))
    ball = extract_ball(g, x)
    verdict = classify_vertex(g, ball)
    rho = cd_curvature(ball).rho
    kappa = ollivier_kappa(g, x, g.neighbors(x)[0])
    cls = verdict.structure_class.name.lower().replace("_", " ")
    if verdict.cd_prediction is None:
        print(f"{g.name:21s} {cls:15s}    {verdict.reason};")
        print(f"{'':21s} {'':15s}    measured rho {rho:.3f}, kappa {kappa}")
    else:
        print(f"{g.name:21s} {cls:15s} {verdict.N:2d} {verdict.cd_prediction:>14s} "
              f"{rho:8.3f} {str(kappa):>6s}")

print()
print("The complete graph is outside the theory (triangles), and K_{3,3}")
print("only escapes the biclique exclusion because the decomposition")
print("machinery handles it separately; both still have computable")
print("curvatures, just no structural verdict.")
