"""Acceptance battery: one test and one printed verdict line per criterion.

Every criterion reads the shared corpus facts gathered once per session,
recomputing only what its statement singles out.  Verdict lines go to the
real stdout so they stay visible under pytest's capture.
"""

import random
from fractions import Fraction

from graphcurvature.bakry_emery import eliminate_second_neighbors, gamma2_form
from graphcurvature.classify import (
    StructureClass,
    bipartite_decomposition,
    cd_ollivier_consistency,
    classify_vertex,
    interchange_class,
)
from graphcurvature.families import (
    complete_graph,
    interchange_graph,
    matching_graph,
    path_union,
    star,
)
from graphcurvature.graphs import Graph, diameter, extract_ball

from oracles import oracle_wasserstein, rayleigh_minimum, solve_integer_transport

ONE = StructureClass.ONE_UNLINKED
MULTI = StructureClass.MULTI_UNLINKED

# the terminal-summary hook in conftest replays these after the run
VERDICTS: list[str] = []


def _verdict(num, text, problems):
    ok = not problems
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}"
    if not ok:
        line += f" -- {problems[0]}" + (
            f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _kmap(facts):
    out = {}
    for ef in facts.edges:
        if ef.kappa is not None:
            out[(ef.x, ef.y)] = ef.kappa
            out[(ef.y, ef.x)] = ef.kappa
    return out


def test_criterion_01_hypercubes(corpus_facts):
    problems = []
    for d in range(2, 7):
        facts = corpus_facts[f"hypercube:{d}"]
        for vf in facts.vertices:
            if vf.rho.sign(2):
                problems.append(f"d={d} vertex {vf.label}: rho = {vf.rho.value!r}")
        for ef in facts.edges:
            if ef.kappa != Fraction(1, d):
                problems.append(f"d={d} edge: kappa = {ef.kappa} != 1/{d}")
    _verdict(1, "hypercubes d=2..6 have rho = 2 and kappa = 1/d", problems)


def test_criterion_02_complete_bipartite(corpus_facts):
    problems = []
    for n in range(2, 7):
        facts = corpus_facts[f"complete-bipartite:{n}"]
        for vf in facts.vertices:
            if vf.rho.sign(2):
                problems.append(f"n={n} vertex {vf.label}: rho = {vf.rho.value!r}")
        for ef in facts.edges:
            if ef.kappa != Fraction(1, n):
                problems.append(f"n={n} edge: kappa = {ef.kappa} != 1/{n}")
    _verdict(2, "complete bipartite n=2..6 have rho = 2 and kappa = 1/n",
             problems)


def test_criterion_03_zigzag_counterexample(corpus_facts):
    problems = []
    for d in (6, 8):
        key = f"zigzag:hypercube:{d},cycle:{d}"
        facts = corpus_facts[key]
        g = facts.graph
        for vf in facts.vertices:
            if vf.rho.sign(0) >= 0:
                problems.append(f"{key} vertex {vf.label}: rho = "
                                f"{vf.rho.value!r} does not break CD(0, inf)")
                break
        # the worked-out edge: the all-zero word at the first cycle vertex,
        # and two steps around the cycle after flipping the second bit
        x1 = g.resolve_vertex(f"({'0' * d},1)")
        b = g.resolve_vertex(f"(01{'0' * (d - 2)},3)")
        kappa = _kmap(facts).get((x1, b))
        if kappa != Fraction(-1, 4):
            problems.append(f"{key} worked-out edge kappa = {kappa} != -1/4")
        vf = next(v for v in facts.vertices if v.vertex == x1)
        if vf.N != 2:
            problems.append(f"{key} worked-out vertex N = {vf.N} != 2")
        counts = sorted(vf.nonlink_counts.values())
        if counts != [1, 1, 2, 2]:
            problems.append(f"{key} non-link counts {counts} != [1, 1, 2, 2]")
        if vf.nonlink_counts.get(b) != 2:
            problems.append(f"{key} worked-out partner misses "
                            f"{vf.nonlink_counts.get(b)} != 2 links")
    _verdict(3, "zigzag products d=6,8 break CD(0, inf) with the "
                "worked-out edge at kappa = -1/4 and N = 2", problems)


def test_criterion_04_flat_class(corpus_facts):
    problems = []
    for key in ("lattice:1:4", "lattice:2:4", "lattice:3:4",
                "cycle:5", "cycle:6", "cycle:7", "cycle:8"):
        facts = corpus_facts[key]
        safe_vertices = [vf for vf in facts.vertices if vf.safe]
        if not safe_vertices:
            problems.append(f"{key}: no probe-safe vertices")
        for vf in safe_vertices:
            if vf.rho.sign(0):
                problems.append(f"{key} vertex {vf.label}: rho = {vf.rho.value!r}")
        for ef in facts.edges:
            if ef.kappa is not None and ef.kappa < 0:
                problems.append(f"{key} edge: kappa = {ef.kappa} < 0")
    for ef in corpus_facts["cycle:5"].edges:
        if not ef.kappa > 0:
            problems.append(f"cycle:5 edge: kappa = {ef.kappa} not > 0")
    _verdict(4, "lattices Z^1..3 and cycles 5..8 are flat with "
                "nonnegative kappa, strictly positive on the 5-cycle",
             problems)


def test_criterion_05_negative_class(corpus_facts):
    problems = []
    for key in ("tree:3:4", "tree:4:4", "tree:5:4", "petersen",
                "dodecahedron", "flip:6", "adjacent-transpositions:4"):
        facts = corpus_facts[key]
        for vf in facts.vertices:
            if vf.safe and vf.rho.sign(0) >= 0:
                problems.append(f"{key} vertex {vf.label}: rho = "
                                f"{vf.rho.value!r} not negative")
        kappas = [ef.kappa for ef in facts.edges if ef.kappa is not None]
        if not kappas or min(kappas) > 0:
            problems.append(f"{key}: min kappa {min(kappas, default=None)} "
                            "not <= 0")
    for ef in corpus_facts["dodecahedron"].edges:
        if ef.kappa != 0:
            problems.append(f"dodecahedron edge: kappa = {ef.kappa} != 0")
    _verdict(5, "trees, Petersen, dodecahedron, flip-6, adjacent "
                "transpositions are CD-negative with min kappa <= 0",
             problems)


def test_criterion_06_test_vectors(corpus_facts):
    problems = []
    flat_seen = neg_seen = 0
    for key, facts in corpus_facts.items():
        for vf in facts.vertices:
            if vf.structure_class is ONE:
                flat_seen += 1
                if vf.flat_vector_value != 0:
                    problems.append(f"{key} {vf.label}: flat vector gives "
                                    f"{vf.flat_vector_value} != 0")
            elif vf.structure_class is MULTI:
                neg_seen += 1
                if (vf.negative_vector_value is None
                        or vf.negative_vector_value > -2 * vf.degree):
                    problems.append(
                        f"{key} {vf.label}: negative vector gives "
                        f"{vf.negative_vector_value}, needs <= {-2 * vf.degree}")
    if flat_seen < 10 or neg_seen < 10:
        problems.append(f"too few classified vertices "
                        f"(flat {flat_seen}, negative {neg_seen})")
    _verdict(6, f"certifying vectors: {flat_seen} flat vertices hit 0, "
                f"{neg_seen} negative vertices stay below -2d", problems)


def test_criterion_07_transposition_cayley(corpus_facts):
    problems = []
    facts = corpus_facts["transpositions:4"]
    for vf in facts.vertices:
        if vf.rho.sign(2):
            problems.append(f"S4 vertex {vf.label}: rho = {vf.rho.value!r}")
    for ef in facts.edges:
        if ef.kappa != Fraction(1, 6):
            problems.append(f"S4 edge: kappa = {ef.kappa} != 1/6")
    # the n = 3 graph is K_{3,3} in disguise: map even permutations to
    # one side, odd to the other, and compare edges and curvatures
    tc3 = corpus_facts["transpositions:3"]
    k33 = corpus_facts["complete-bipartite:3"]
    g3 = tc3.graph
    evens = ["123", "231", "312"]
    odds = ["213", "132", "321"]
    iso = {g3.resolve_vertex(lab): i for i, lab in enumerate(evens)}
    iso.update({g3.resolve_vertex(lab): 3 + i for i, lab in enumerate(odds)})
    mapped = {tuple(sorted((iso[u], iso[v]))) for u, v in g3.edges}
    if mapped != set(k33.graph.edges):
        problems.append("parity map is not a graph isomorphism onto K_{3,3}")
    if len(g3.vertices) != len(k33.graph.vertices):
        problems.append("vertex counts differ")
    for a, b in ((tc3, k33),):
        rhos_a = sorted(vf.rho.value for vf in a.vertices)
        rhos_b = sorted(vf.rho.value for vf in b.vertices)
        if rhos_a != rhos_b:
            problems.append(f"rho multisets differ: {rhos_a} vs {rhos_b}")
        kap_a = sorted(ef.kappa for ef in a.edges)
        kap_b = sorted(ef.kappa for ef in b.edges)
        if kap_a != kap_b:
            problems.append("kappa multisets differ")
    _verdict(7, "all-transposition Cayley graph of S4 has rho = 2, "
                "kappa = 1/6; the S3 graph is K_{3,3} with matching "
                "curvatures", problems)


def test_criterion_08_interchange_rule(corpus_facts):
    hosts = [
        matching_graph(1), matching_graph(2), matching_graph(3),
        path_union([2]), path_union([2, 1]), path_union([2, 2]),
        path_union([3]), star(3), complete_graph(3),
    ]
    problems = []
    for host in hosts:
        if len(host.vertices) > 6:
            problems.append(f"host {host.name} exceeds six vertices")
            continue
        predicted = interchange_class(host)
        g = interchange_graph(host)
        for v in g.vertices:
            direct = classify_vertex(g, extract_ball(g, v)).structure_class
            if direct is not predicted:
                problems.append(
                    f"host {host.name} state {g.label(v)}: rule says "
                    f"{predicted}, direct classification says {direct}")
                break
    _verdict(8, "interchange host rule matches direct classification of "
                "every state for all nine hosts", problems)


def test_criterion_09_sign_consistency(corpus_facts):
    problems = []
    applied = []
    for key, facts in corpus_facts.items():
        if not (facts.regular is not None and facts.triangle_free
                and facts.biclique_free and not facts.truncated):
            continue
        applied.append(key)
        kmap = _kmap(facts)
        for vf in facts.vertices:
            kappas = {facts.graph.label(y): kmap[(vf.vertex, y)]
                      for y in facts.graph.neighbors(vf.vertex)}
            ok, viol = cd_ollivier_consistency(vf.rho, kappas)
            if not ok:
                problems.append(f"{key} vertex {vf.label}: {viol[0]}")
    for expect in ("hypercube:4", "petersen", "zigzag:hypercube:6,cycle:6",
                   "flip:6", "cycle:5"):
        if expect not in applied:
            problems.append(f"{expect} unexpectedly escaped the sweep")
    _verdict(9, f"sign consistency between the curvatures holds at every "
                f"vertex of {len(applied)} regular triangle- and "
                f"biclique-free corpus graphs", problems)


def test_criterion_10_positive_structure_sweep(corpus_facts):
    keys = [f"hypercube:{d}" for d in range(2, 7)]
    keys += [f"complete-bipartite:{n}" for n in range(2, 7)]
    keys += ["transpositions:4", "biplane"]
    problems = []
    decomposed_edges = 0
    for key in keys:
        facts = corpus_facts[key]
        g = facts.graph
        for ef in facts.edges:
            classes = bipartite_decomposition(g, ef.x, ef.y)
            if classes is None:
                problems.append(f"{key}: edge without a biclique "
                                "decomposition")
                continue
            decomposed_edges += 1
            d = g.degree(ef.x)
            if ef.kappa != Fraction(1, d):
                problems.append(f"{key}: decomposed edge has kappa = "
                                f"{ef.kappa} != 1/{d}")
        for vf in facts.vertices:
            if vf.min_linkage is None or vf.min_linkage < Fraction(1, 2):
                problems.append(f"{key} vertex {vf.label}: linkage "
                                f"{vf.min_linkage} below 1/2")
            elif vf.rho.sign(2):
                problems.append(f"{key} vertex {vf.label}: heavy linkage "
                                f"but rho = {vf.rho.value!r}")
    if decomposed_edges < 100:
        problems.append(f"only {decomposed_edges} decomposed edges probed")
    _verdict(10, f"biclique decompositions force kappa = 1/d on "
                 f"{decomposed_edges} edges and heavy linkage forces "
                 f"rho = 2 across the positive families", problems)


def test_criterion_11_independent_oracles(corpus_facts):
    problems = []
    # transport: exact flow against exhaustive polytope search
    rng = random.Random(1847)
    trials = 0
    while trials < 200:
        n = rng.randint(4, 10)
        edges = {(rng.randint(0, i - 1), i) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        g = Graph(range(n), edges)

        def measure():
            # random composition of 12 keeps the masses rational while
            # letting the oracle's saturation states collide and stay small
            size = rng.randint(1, min(6, n))
            verts = rng.sample(range(n), size)
            cuts = sorted(rng.sample(range(1, 12), size - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [12])]
            return dict(zip(verts, parts))

        cost, supply, demand, total, _ = solve_integer_transport(
            g, measure(), measure())
        expect = oracle_wasserstein(cost, supply, demand)
        trials += 1
        if total != expect:
            problems.append(f"transport trial {trials}: flow {total}/12 "
                            f"!= oracle {expect}/12")
            break
    # spectra: eigensolve against projected gradient descent
    balls = 0
    for key, facts in sorted(corpus_facts.items()):
        taken = 0
        for vf in facts.vertices:
            if not vf.safe or taken >= 3:
                continue
            taken += 1
            balls += 1
            ball = extract_ball(facts.graph, vf.vertex)
            red = eliminate_second_neighbors(gamma2_form(ball), ball)
            slow = rayleigh_minimum(red.as_array(), restarts=100, seed=balls)
            if abs(slow - vf.rho.value) > 1e-6:
                problems.append(f"{key} {vf.label}: certified rho "
                                f"{vf.rho.value!r} vs gradient descent {slow!r}")
        if balls >= 60:
            break
    if trials < 200 or balls < 50:
        problems.append(f"coverage too small: {trials} transport trials, "
                        f"{balls} spectral balls")
    _verdict(11, f"two independent oracles agree: {trials} exact transport "
                 f"instances and {balls} spectral minimizations", problems)


def test_criterion_12_diameter_bounds(corpus_facts):
    problems = []
    bounded = 0
    for key, facts in corpus_facts.items():
        if facts.truncated:
            continue
        kappas = [ef.kappa for ef in facts.edges]
        if not kappas or any(k is None for k in kappas):
            continue
        kstar = min(kappas)
        if kstar <= 0:
            continue
        dia = diameter(facts.graph)
        if dia is None:
            problems.append(f"{key}: positive curvature but disconnected")
            continue
        bounded += 1
        if dia * kstar > 1:
            problems.append(f"{key}: diameter {dia} > 1/kappa* = "
                            f"{Fraction(1, 1) / kstar}")
        if facts.regular is not None and dia > 2 * facts.regular:
            problems.append(f"{key}: diameter {dia} > 2d = {2 * facts.regular}")
    for n in range(3, 9):
        facts = corpus_facts[f"star:{n}"]
        for ef in facts.edges:
            if ef.kappa != Fraction(1, n):
                problems.append(f"star:{n} edge: kappa = {ef.kappa} != 1/{n}")
        dia = diameter(facts.graph)
        cap = 2 * n * n - 2 * n
        if dia > cap:
            problems.append(f"star:{n}: diameter {dia} > 2d^2-2d = {cap}")
    if bounded < 10:
        problems.append(f"only {bounded} graphs carried a positive bound")
    _verdict(12, f"diameter bounds hold on {bounded} positively curved "
                 f"graphs and the stars obey the irregular bound", problems)
