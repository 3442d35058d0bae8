"""Curvature-dimension (CD) curvature at a vertex.

The doubled Gamma2 form is assembled over the punctured two-ball as an
integer matrix with an integer scale (the only fractions in it are
halves), and second neighbor variables are eliminated by a Schur
complement that stays in integers.  rho is the least eigenvalue of the
reduced matrix.  `cd_curvature` returns it as a float from one `eigh`;
`certify_rho` starts from the same `eigh`, at the exact Rayleigh quotient
of its eigenvector, an upper bound on rho, and settles rho in integer
arithmetic: `rho_sign` decides the sign of rho - r for any rational r by
fraction-free elimination, and those signs bracket rho on the
15-significant-digit decimal grid and decide each class threshold.

The form fixes f(base) = 0; the operators are translation invariant, so
nothing is lost, and the Gamma form becomes half the identity on the
first sphere, which turns the generalized eigenproblem into a plain
symmetric one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from .graphs import GraphError, LocalBall

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

        Exact for int, Fraction and float values: a value that is neither
        int nor Fraction is made an exact Fraction, all of them are brought
        to one common denominator, and each row sums over ints.
        """
        f = [values.get(v, 0) for v in self.index]
        f = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in f]
        den = math.lcm(*(x.denominator for x in f))
        f = [x.numerator * (den // x.denominator) for x in f]
        total = sum(fi * sum(map(mul, row, f))
                    for fi, row in zip(f, self.matrix) if fi)
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
    Each value is Fraction(2 * total, k) over the k sphere1 neighbors of
    the vertex, from a plain sum; when that sum is neither int nor
    Fraction, as with a float among the values, the values are made exact
    Fractions and summed again.
    """
    out = {}
    for u in ball.sphere2:
        nbrs = ball.adj[u]
        if not nbrs:
            raise GraphError(f"second neighbor {u} has no first-sphere neighbor")
        vals = [s1_values.get(v, 0) for v in nbrs]
        total = sum(vals)
        if not isinstance(total, (int, Fraction)):
            total = sum(map(Fraction, vals))
        out[u] = Fraction(2 * total, len(nbrs))
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
    the doubling cancels.  A truncated or isolated vertex has no ball:
    extract_ball refuses it.
    """
    form = gamma2_form(ball)
    return CdResult(lowest_eigenpair(eliminate_second_neighbors(form, ball))[0])


def lowest_eigenpair(form: QuadraticForm) -> tuple[float, list[float]]:
    """Smallest eigenvalue of form.matrix / form.scale and a unit
    eigenvector for it, from one float eigensolve.

    The entries are rounded once, so equal integer matrices and scales
    give the same bits.
    """
    values, vectors = np.linalg.eigh(form.as_array())
    return float(values[0]), vectors[:, 0].tolist()


def rayleigh_bound(form: QuadraticForm, vector) -> Fraction | None:
    """An exact upper bound on rho: the Rayleigh quotient of `vector`
    rounded to integers at scale 2^53, f^T M f / (scale f^T f), which no
    nonzero f takes below the least eigenvalue.  None when the vector
    rounds to zero."""
    f = [round(c * 2.0 ** 53) for c in vector]
    norm = sum(a * a for a in f)
    if not norm:
        return None
    top = sum(a * sum(m * b for m, b in zip(row, f))
              for a, row in zip(f, form.matrix) if a)
    return Fraction(top, norm * form.scale)


def rho_sign(form: QuadraticForm, r) -> int:
    """The sign of rho - r, exactly, for the least eigenvalue rho of
    form.matrix / form.scale and a rational r.

    With r = num / den, rho >= r exactly when A = den M - num scale I is
    positive semidefinite, and rho > r exactly when A is positive
    definite.  Fraction-free symmetric elimination (Bareiss) decides
    which in Python ints: each step pivots on the largest remaining
    diagonal entry, and every entry after it is the Schur complement's
    entry times the pivot before, a positive number, so the division is
    exact and the signs are the Schur complement's.  A negative pivot
    means A is not semidefinite; a zero pivot means the rest is
    semidefinite, and A singular, only where the rest is all zero.
    """
    r = Fraction(r)
    shift = r.numerator * form.scale
    a = [[r.denominator * x for x in row] for row in form.matrix]
    for i, row in enumerate(a):
        row[i] -= shift
    live = list(range(len(a)))
    prev = 1
    while live:
        k = max(live, key=lambda i: a[i][i])
        p = a[k][k]
        if p <= 0:
            return -1 if p < 0 or any(a[i][j] for i in live for j in live) else 0
        live.remove(k)
        ak = a[k]
        for n, i in enumerate(live):
            ai = a[i]
            c = ai[k]
            for j in live[n:]:
                ai[j] = a[j][i] = (p * ai[j] - c * ak[j]) // prev
        prev = p
    return 1


@dataclass(frozen=True)
class CertifiedRho:
    """rho settled exactly against its reduced form.

    value is rho correctly rounded to 15 significant digits, ties to
    even, held as the float nearest that decimal, so f"{value:.15g}"
    prints the decimal itself; exact is rho where a test met it and None
    elsewhere.  rho lies strictly between low and high, or equals both
    where it is exact.  Certificates are equal when they print and pin
    down the same rho.
    """

    value: float
    exact: Fraction | None
    low: Fraction = field(compare=False)
    high: Fraction = field(compare=False)
    form: QuadraticForm = field(compare=False, repr=False)
    # threshold -> sign of rho - threshold, each decided once
    signs: dict[Fraction, int] = field(default_factory=dict, compare=False,
                                       repr=False)

    def sign(self, r) -> int:
        """The sign of rho - r, read off the bracket where it excludes r
        and else decided by one exact test."""
        r = Fraction(r)
        known = self.signs.get(r)
        if known is None:
            if self.exact is not None:
                known = (self.exact > r) - (self.exact < r)
            elif r <= self.low:
                known = 1
            elif r >= self.high:
                known = -1
            else:
                known = rho_sign(self.form, r)
            self.signs[r] = known
        return known


def _decade(x: Fraction) -> int:
    """The e with 10^e <= |x| < 10^(e + 1), for x != 0."""
    x = abs(x)
    e = math.floor(math.log10(x))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def _bracket(test, j: int) -> tuple[int, int]:
    """(lo, lo + 1) with test(lo) > 0 > test(lo + 1), or (i, i) with
    test(i) = 0, for a test that falls from positive to negative as its
    argument rises: steps from j that double until the sign changes,
    then bisection."""
    lo = hi = None
    step = 1
    while True:
        s = test(j)
        if s == 0:
            return j, j
        if s > 0:
            lo = j
        else:
            hi = j
        if hi is None:
            j, step = lo + step, 2 * step
        elif lo is None:
            j, step = hi - step, 2 * step
        elif hi - lo > 1:
            j = (lo + hi) // 2
        else:
            return lo, hi


def certify_rho(form: QuadraticForm) -> CertifiedRho:
    """rho of a reduced form, correctly rounded and exactly bracketed.

    The sign comes first, so rho = 0 is exact and prints 0.  Otherwise
    one eigh gives an estimate x and an eigenvector, whose exact Rayleigh
    quotient is an upper bound on rho (rayleigh_bound); where that bound
    lies on rho's side of 0 it is the estimate, so a float eigenvalue
    many units off, as at a multiple eigenvalue, costs nothing.  In the
    decade e of x, with h half a unit in the 15th significant digit
    (10^(e - 14) / 2), rho is bracketed between neighbouring multiples of
    h, or met on one, by exact tests that start at the grid point at or
    below x, widen geometrically and then bisect; a grid point above the
    bound needs no test.  The estimate steers the search and may be off
    by any number of units.  The even multiple of the bracket is the
    correctly rounded value.  When the bracket falls outside the decade
    of e, the search restarts in the decade the bracket names.
    """
    zero = Fraction(0)
    sign = rho_sign(form, zero)
    if sign == 0:
        return CertifiedRho(0.0, zero, zero, zero, form, {zero: 0})
    estimate, vector = lowest_eigenpair(form)
    bound = rayleigh_bound(form, vector)
    if bound is not None and (bound < 0 or sign > 0):
        x = bound
    else:
        x = Fraction(estimate)
        if x == 0 or (x > 0) != (sign > 0):
            # float noise around a tiny rho: its size is the best guess left
            x = -x if x else Fraction(sign)

    def test(j: int) -> int:
        r = j * h
        return -1 if bound is not None and r > bound else rho_sign(form, r)

    while True:
        e = _decade(x)
        h = Fraction(10) ** (e - 14) / 2
        lo, hi = _bracket(test, math.floor(x / h))
        if lo == hi and lo % 2:
            # rho is a tie: of the mantissas k and k + 1, take the even one
            k = (lo - 1) // 2
            k += k % 2
        else:
            # the even one of lo and hi is the nearest grid point
            k = (lo + lo % 2) // 2
        if min(abs(lo), abs(hi)) >= 2 * 10 ** 14 and abs(k) <= 10 ** 15:
            break
        x = (lo + hi) * h / 2
    return CertifiedRho(float(f"{k}e{e - 14}"), lo * h if lo == hi else None,
                        lo * h, hi * h, form, {zero: sign})
