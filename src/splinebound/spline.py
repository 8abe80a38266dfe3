"""Two-point spline approximants of arbitrary order.

The n-th order two-point spline of a function on [alpha, beta] is the unique
degree <= 2n+1 polynomial matching the value and first n derivatives at both
endpoints.  For sine and cosine on [0, pi/2] every endpoint derivative is
0 or +-1, so the whole construction stays inside exact pi-rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .numerics import PiRational, Poly, Var

HALF_PI = PiRational.pi_term(1, 1, 2)
TWO_OVER_PI = PiRational.pi_term(-1, 2)

# sin(k*pi/2) and cos(k*pi/2) cycles
_SIN_CYCLE = (0, 1, 0, -1)


def _sin_quarter(k: int) -> PiRational:
    return PiRational.from_rational(_SIN_CYCLE[k % 4])


@dataclass(frozen=True)
class EndpointData:
    """Endpoint abscissae and derivative lists f^(k) for k = 0..n."""

    alpha: PiRational
    beta: PiRational
    derivs_alpha: tuple
    derivs_beta: tuple

    def order(self) -> int:
        return len(self.derivs_alpha) - 1

    def validate(self, n: int):
        if len(self.derivs_alpha) != n + 1 or len(self.derivs_beta) != n + 1:
            raise ValueError(
                f"order {n} needs {n + 1} derivative values at each endpoint"
            )
        a = self.alpha.to_ext_real(30)
        b = self.beta.to_ext_real(30)
        if not a < b:
            raise ValueError("alpha must be strictly below beta")


@dataclass(frozen=True)
class SplineApproximant:
    """Degree <= 2n+1 polynomial matching endpoint data of order n."""

    order: int
    poly: Poly
    target: str


def two_point_spline(data: EndpointData, n: int) -> SplineApproximant:
    """Build the n-th order two-point Hermite interpolant, exactly.

    The expansion is done in the normalized variable u = (x - alpha) /
    (beta - alpha), where both endpoint sums have integer polynomial parts;
    the affine back-substitution to x then needs only the reciprocal of
    beta - alpha, which must be a single pi-power term (true for every
    interval used here).
    """
    data.validate(n)
    width = data.beta - data.alpha
    inv_width = width.inverse()

    u = Poly([PiRational.zero(), PiRational.one()], Var.X_ON_0_HALFPI)
    one_minus_u = Poly([PiRational.one(), PiRational.from_rational(-1)], Var.X_ON_0_HALFPI)

    total = Poly([], Var.X_ON_0_HALFPI)

    # endpoint alpha: (1-u)^(n+1) * sum_k (width^k f^(k)(alpha)/k!) u^k sum_i C(n+i,i) u^i
    lead = one_minus_u ** (n + 1)
    for k in range(n + 1):
        fk = data.derivs_alpha[k]
        if isinstance(fk, PiRational) and fk.is_zero():
            continue
        inner = Poly([], Var.X_ON_0_HALFPI)
        for i in range(n - k + 1):
            inner = inner + (u**i).scale(comb(n + i, i))
        scalar = (width**k) * fk * Fraction(1, factorial(k))
        total = total + (lead * (u**k) * inner).scale(scalar)

    # endpoint beta: u^(n+1) * sum_k ((-1)^k width^k f^(k)(beta)/k!) (1-u)^k sum_i C(n+i,i) (1-u)^i
    lead = u ** (n + 1)
    for k in range(n + 1):
        fk = data.derivs_beta[k]
        if isinstance(fk, PiRational) and fk.is_zero():
            continue
        inner = Poly([], Var.X_ON_0_HALFPI)
        for i in range(n - k + 1):
            inner = inner + (one_minus_u**i).scale(comb(n + i, i))
        scalar = (width**k) * fk * Fraction((-1) ** k, factorial(k))
        total = total + (lead * (one_minus_u**k) * inner).scale(scalar)

    # back-substitute u = (x - alpha)/width
    poly = total.substitute_affine(-data.alpha * inv_width, inv_width)
    return SplineApproximant(order=n, poly=poly, target="generic")


def sine_endpoint_data(n: int) -> EndpointData:
    """Sine data on [0, pi/2]: f^(k)(x) = sin(x + k*pi/2)."""
    return EndpointData(
        alpha=PiRational.zero(),
        beta=HALF_PI,
        derivs_alpha=tuple(_sin_quarter(k) for k in range(n + 1)),
        derivs_beta=tuple(_sin_quarter(k + 1) for k in range(n + 1)),
    )


@cache
def sine_spline(n: int) -> SplineApproximant:
    """n-th order spline approximant to sin(x) on [0, pi/2], exact coefficients.

    Built once per order and shared by every caller: treat the result as
    immutable.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    s = two_point_spline(sine_endpoint_data(n), n)
    return SplineApproximant(order=n, poly=s.poly, target="sin")


def reflect_half_pi(p: Poly) -> Poly:
    """Recompose p(pi/2 - y) as a polynomial in y."""
    return p.substitute_affine(HALF_PI, PiRational.from_rational(-1))


def cosine_spline(n: int) -> SplineApproximant:
    """n-th order spline approximant to cos(y) on [0, pi/2].

    Equal, coefficient by coefficient, to the sine spline reflected through
    pi/2 (and to the generic interpolant fed with cosine endpoint data).
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return SplineApproximant(
        order=n, poly=reflect_half_pi(sine_spline(n).poly), target="cos"
    )
