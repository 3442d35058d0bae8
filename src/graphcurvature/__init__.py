"""Exact discrete curvature for locally finite graphs.

Two notions are computed side by side: a spectral curvature at a vertex
(the best constant in the local curvature-dimension inequality, obtained
as the least eigenvalue of a reduced quadratic form) and a transport
curvature on an edge (one minus the Wasserstein distance between lazy
neighborhood measures, solved exactly over the rationals).  A structure
classification of regular graphs without triangles or 2x3 bicliques
predicts the sign of both, and the checks module verifies all of the
classification and bound statements over generated graph corpora.
"""

from .graphs import Graph, GraphError, diameter, extract_ball, is_regular
from .bakry_emery import cd_curvature
from .ollivier import (
    TransportProblem,
    certificate_violations,
    kappa_detail,
    kappa_lower_witness,
    kappa_upper_witness,
    ollivier_kappa,
    validate_plan,
)
from .classify import classify_vertex
from .corpus import parse_graph_spec

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "diameter", "extract_ball", "is_regular",
    "cd_curvature",
    "TransportProblem", "certificate_violations", "kappa_detail",
    "kappa_lower_witness", "kappa_upper_witness", "ollivier_kappa",
    "validate_plan",
    "classify_vertex",
    "parse_graph_spec",
]
