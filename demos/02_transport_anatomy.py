"""
Anatomy of one edge curvature
=============================

Everything behind kappa on a single edge of the five-cycle: the two lazy
measures, the optimal transport plan, the matching dual potential, and
the constructive witnesses that bracket the answer from the link
structure alone.
"""

from fractions import Fraction

from graphcurvature import (
    TransportProblem,
    certificate_violations,
    kappa_detail,
    kappa_lower_witness,
    kappa_upper_witness,
    ollivier_kappa,
    validate_plan,
)
from graphcurvature.families import cycle, regular_tree

g = cycle(5)
x, y = 0, 1

# the lazy transport problem across the edge, masses in units of tp.scale
tp = TransportProblem(g, x, y)
for v, measure in ((x, tp.mu), (y, tp.nu)):
    print(f"mass around {g.label(v)}: "
          + ", ".join(f"{g.label(p)}:{Fraction(units, tp.scale)}"
                      for p, units in measure))

detail = kappa_detail(g, x, y)
print(f"\nW1 = {detail.wasserstein}, kappa = 1 - W1 = {detail.kappa}")

print("\noptimal plan (source -> target, mass):")
for s, t, mass in detail.plan.flows:
    if s != t:
        print(f"  {g.label(s)} -> {g.label(t)}  {mass}")

# the plan is feasible and its cost is what the solver claims
cost = validate_plan(g, x, y, detail.plan)
assert cost == detail.wasserstein

cert = detail.certificate
print("\ndual potential (1-Lipschitz, integer):")
print("  " + ", ".join(f"{g.label(v)}:{cert.values[v]}"
                       for v in sorted(cert.values)))
print(f"  dual value {cert.dual_value}, gap {cert.gap} "
      "(zero gap = certified optimal)")
assert not certificate_violations(g, cert.values)

# bounds built from the link structure: the lower plan solves nothing,
# the upper potential solves the edge only to report its gap
plan = kappa_lower_witness(g, x, y)
cert = kappa_upper_witness(g, x, y)
print(f"\nwitness plan cost {plan.total_cost}: proves kappa >= {1 - plan.total_cost}")
if cert is None:
    print("no upper witness here: it needs a neighbor of "
          f"{g.label(x)} missing at least two link partners")
else:
    print(f"witness dual {cert.dual_value}: proves kappa <= {1 - cert.dual_value}")

# on a tree every neighbor pair is unlinked, so the upper witness fires
t = regular_tree(3, 4)
r = t.resolve_vertex("r")
c = t.neighbors(r)[0]
cert = kappa_upper_witness(t, r, c)
print(f"\non the 3-regular tree it does exist: dual {cert.dual_value} "
      f"proves kappa <= {1 - cert.dual_value}")
print(f"and the exact value there is {ollivier_kappa(t, r, c)}")
