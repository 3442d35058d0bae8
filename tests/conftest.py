"""Shared fixtures: the generated corpus and its gathered curvature facts.

Gathering facts for the full corpus takes a few seconds, so it happens
once per session and every test module reads from the same cache.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from graphcurvature.bakry_emery import CertifiedRho, QuadraticForm, certify_rho
from graphcurvature.checks import GraphFacts, gather_facts, run_checks
from graphcurvature.corpus import build_item, default_corpus_specs


def _bump_first_class(rows, classes, field, bump):
    """rows with `field` replaced by bump(field) at every row of the class
    of the first row where it is set, so that all rows of a class still
    agree."""
    first = next(i for i, r in enumerate(rows) if getattr(r, field) is not None)
    new = bump(getattr(rows[first], field))
    return tuple(replace(r, **{field: new}) if c == classes[first] else r
                 for r, c in zip(rows, classes))


def raised_rho(rho: CertifiedRho, delta: Fraction) -> CertifiedRho:
    """rho + delta, certified afresh: with delta = p/q, the form M/s
    becomes (qM + ps I) / (qs), whose eigenvalues are those of M/s plus
    delta."""
    form = rho.form
    p, q = delta.numerator, delta.denominator
    matrix = [[q * x + (p * form.scale if i == j else 0)
               for j, x in enumerate(row)]
              for i, row in enumerate(form.matrix)]
    return certify_rho(QuadraticForm(form.index, matrix, q * form.scale))


def exact_rho(r) -> CertifiedRho:
    """rho = r certified, as the least eigenvalue of the 1x1 form
    [numerator] / denominator."""
    r = Fraction(r)
    return certify_rho(QuadraticForm((0,), [[r.numerator]], r.denominator))


def perturbed(facts: GraphFacts, kind: str) -> GraphFacts:
    """facts with the first gathered kappa raised by 1/7 (kind "kappa") or
    the first rho by 1/4 (kind "rho"), on every row of its class: a
    failing report for the checks, the renderers and the command line
    failure path to handle."""
    if kind == "kappa":
        return replace(facts, edges=_bump_first_class(
            facts.edges, facts.edge_class, "kappa",
            lambda k: k + Fraction(1, 7)))
    return replace(facts, vertices=_bump_first_class(
        facts.vertices, facts.vertex_class, "rho",
        lambda rho: raised_rho(rho, Fraction(1, 4))))


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
