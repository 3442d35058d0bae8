"""Shared fixtures: the generated corpus and its gathered curvature facts.

Gathering facts for the full corpus takes a few seconds, so it happens
once per session and every test module reads from the same cache.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from graphcurvature.checks import GraphFacts, gather_facts, run_checks
from graphcurvature.corpus import build_item, default_corpus_specs


def _bump_first_class(rows, classes, field, delta):
    """rows with `field` raised by delta at every row of the class of the
    first row where it is set, so that all rows of a class still agree."""
    first = next(i for i, r in enumerate(rows) if getattr(r, field) is not None)
    return tuple(
        replace(r, **{field: getattr(r, field) + delta})
        if c == classes[first] else r
        for r, c in zip(rows, classes))


def perturbed(facts: GraphFacts, kind: str) -> GraphFacts:
    """facts with the first gathered kappa raised by 1/7 (kind "kappa") or
    the first rho by 0.25 (kind "rho"), on every row of its class: a
    failing report for the checks, the renderers and the command line
    failure path to handle."""
    if kind == "kappa":
        return replace(facts, edges=_bump_first_class(
            facts.edges, facts.edge_class, "kappa", Fraction(1, 7)))
    return replace(facts, vertices=_bump_first_class(
        facts.vertices, facts.vertex_class, "rho", 0.25))


@pytest.fixture(scope="session")
def corpus_items():
    items = (build_item(spec) for spec in default_corpus_specs())
    return {item.key: item for item in items}


@pytest.fixture(scope="session")
def corpus_facts(corpus_items):
    return {key: gather_facts(item) for key, item in corpus_items.items()}


@pytest.fixture(scope="session")
def corpus_checks(corpus_facts):
    return {key: run_checks(facts) for key, facts in corpus_facts.items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where capture cannot eat them."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
