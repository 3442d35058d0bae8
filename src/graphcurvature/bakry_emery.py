"""Curvature-dimension (CD) curvature at a vertex.

The pipeline is exact until the last step: the doubled Gamma2 form is
assembled over the punctured two-ball as an integer matrix with an
integer scale (the only fractions in it are halves), second neighbor
variables are eliminated by a Schur complement that stays in integers,
and only the final smallest-eigenvalue extraction (`eigh`) is floating
point.

The form fixes f(base) = 0; the operators are translation invariant, so
nothing is lost, and the Gamma form becomes half the identity on the
first sphere, which turns the generalized eigenproblem into a plain
symmetric one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import GraphError, LocalBall

# rho comes out of a float eigensolve, so the class statements (rho = 2,
# rho = 0, rho <= -2/(d-1)) compare it with this fixed slack
RHO_TOLERANCE = 1e-9


class QuadraticForm:
    """Symmetric form matrix / scale, indexed by an ordered vertex list.

    matrix holds Python ints and scale is a positive int, so every entry
    and every value is an exact rational.
    """

    def __init__(self, index: tuple[int, ...], matrix, scale: int = 1):
        self.index = tuple(index)
        n = len(self.index)
        self.matrix = [list(row) for row in matrix]
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise GraphError("quadratic form matrix does not match its index")
        if list(map(list, zip(*self.matrix))) != self.matrix:
            raise GraphError("quadratic form matrix is not symmetric")
        if scale <= 0:
            raise GraphError(f"quadratic form scale {scale} is not positive")
        self.scale = scale

    def value(self, values) -> Fraction:
        """Evaluate f^T M f; vertices absent from `values` count as zero.

        Exact for int, Fraction and float values: they are brought to a
        common denominator and the sum runs over integers.
        """
        f = [Fraction(values.get(v, 0)) for v in self.index]
        den = math.lcm(*(x.denominator for x in f))
        nums = [(i, x.numerator * (den // x.denominator))
                for i, x in enumerate(f) if x]
        total = 0
        for i, fi in nums:
            row = self.matrix[i]
            total += fi * sum(row[j] * fj for j, fj in nums)
        return Fraction(total, den * den * self.scale)

    def as_array(self) -> np.ndarray:
        # int / int is correctly rounded, exactly like float(Fraction)
        s = self.scale
        return np.array([[x / s for x in row] for row in self.matrix])


@dataclass(frozen=True)
class CdResult:
    rho: float


def gamma2_form(ball: LocalBall) -> QuadraticForm:
    """Twice Gamma2 at the base, over sphere1 + sphere2, with f(base) = 0.

    Four contributions: second-neighbor pulls (f(u) - 2f(v))^2, the squared
    neighbor sum, the degree diagonal, and the triangle term for adjacent
    neighbor pairs.  The matrix holds 4 Gamma2, so it is integral, and the
    form carries scale 2.
    """
    if not ball.complete:
        raise GraphError(
            f"two-ball at {ball.base} is cut by a truncation boundary; "
            "curvature would be unreliable"
        )
    s1, s2 = ball.sphere1, ball.sphere2
    n1 = len(s1)
    index = s1 + s2
    pos = {v: i for i, v in enumerate(index)}
    n = len(index)
    # squared neighbor sum: 2 on the whole sphere1 block
    m = [[2] * n1 + [0] * (n - n1) if i < n1 else [0] * n for i in range(n)]

    dx = len(s1)
    for i, v in enumerate(s1):
        row = m[i]
        row[i] += 4 - dx - len(ball.adj[v])
        for u in ball.adj[v]:
            j = pos.get(u, -1)
            if j >= n1:
                m[j][j] += 1
                row[i] += 4
                row[j] -= 2
                m[j][i] -= 2
    # adjacent neighbor pairs form triangles with the base
    for i, v in enumerate(s1):
        for w in ball.adj[v]:
            j = pos.get(w, n)
            if i < j < n1:
                m[i][i] += 5
                m[j][j] += 5
                m[i][j] -= 4
                m[j][i] -= 4
    return QuadraticForm(index, m, 2)


def second_neighbor_minimizer(ball: LocalBall, s1_values) -> dict[int, Fraction]:
    """Closed-form optimal sphere2 values: twice the mean over linked sphere1.

    s1_values maps sphere1 vertices to numbers; missing entries count 0.
    """
    out = {}
    for u in ball.sphere2:
        nbrs = ball.adj[u]
        if not nbrs:
            raise GraphError(f"second neighbor {u} has no first-sphere neighbor")
        total = sum(Fraction(s1_values.get(v, 0)) for v in nbrs)
        out[u] = 2 * total / len(nbrs)
    return out


def eliminate_second_neighbors(g2: QuadraticForm, ball: LocalBall) -> QuadraticForm:
    """Exact Schur complement removing the sphere2 block.

    The sphere2 block is diagonal (sphere2 vertices never interact in the
    doubled Gamma2 form) with positive entries k_u, so the elimination is
    a weighted rank reduction.  It stays in integers by scaling the form
    with L = lcm(k_u): the reduced matrix is L A - sum (L / k_u) c_u c_u^T
    and the scale is multiplied by L.
    """
    s1, s2 = ball.sphere1, ball.sphere2
    if g2.index != s1 + s2:
        raise GraphError("form index does not match the ball")
    n1 = len(s1)
    mat = g2.matrix
    diag = []
    for a, u in enumerate(s2):
        row = mat[n1 + a]
        k = row[n1 + a]
        if any(row[n1:n1 + a]) or any(row[n1 + a + 1:]):
            raise GraphError("sphere2 block unexpectedly non-diagonal")
        if k <= 0:
            raise GraphError(f"sphere2 vertex {u} has a non-positive diagonal")
        diag.append(k)
    lcm = math.lcm(*diag)
    red = [[lcm * x for x in row[:n1]] for row in mat[:n1]]
    for a, k in enumerate(diag):
        row = mat[n1 + a]
        col = [(i, c) for i, c in enumerate(row[:n1]) if c]
        w = lcm // k
        for i, ci in col:
            wc = w * ci
            red_i = red[i]
            for j, cj in col:
                red_i[j] -= wc * cj
    return QuadraticForm(s1, red, g2.scale * lcm)


def cd_curvature(ball: LocalBall) -> CdResult:
    """Largest rho with Gamma2 f >= rho Gamma f at the base; returns rho only.

    Equals the smallest eigenvalue of the reduced doubled-Gamma2 matrix,
    because the companion Gamma form is half the identity on sphere1 and
    the doubling cancels.  A ball cut by a truncation boundary is refused
    by gamma2_form.
    """
    form = gamma2_form(ball)
    if not ball.sphere1:
        raise GraphError(f"vertex {ball.base} is isolated; curvature undefined")
    return CdResult(lowest_eigenvalue(eliminate_second_neighbors(form, ball)))


def lowest_eigenvalue(form: QuadraticForm) -> float:
    """Smallest eigenvalue of form.matrix / form.scale, by a float eigensolve.

    The entries are rounded once, so equal integer matrices and scales
    give the same bits.
    """
    return float(np.linalg.eigh(form.as_array())[0][0])
