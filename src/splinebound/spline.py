"""Two-point spline approximants of arbitrary order.

The n-th order two-point spline of a function on [alpha, beta] is the unique
degree <= 2n+1 polynomial matching the value and first n derivatives at both
endpoints.  For sine and cosine on [0, pi/2] every endpoint derivative is
0 or +-1, so the whole construction stays inside exact pi-rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import NamedTuple

from .numerics import PiRational, Poly, Var, combine_rows

HALF_PI = PiRational.pi_term(1, 1, 2)
TWO_OVER_PI = PiRational.pi_term(-1, 2)

# sin(k*pi/2) and cos(k*pi/2) cycles
_SIN_CYCLE = (0, 1, 0, -1)


def _sin_quarter(k: int) -> PiRational:
    return PiRational.from_rational(_SIN_CYCLE[k % 4])


class EndpointData(NamedTuple):
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


class SplineApproximant(NamedTuple):
    """Degree <= 2n+1 polynomial matching endpoint data of order n."""

    order: int
    poly: Poly
    target: str


def _hermite_basis(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer coefficients in u of the order-n endpoint polynomials, k = 0..n:

        alpha:  (1-u)^(n+1) * u^k     * sum_{i<=n-k} C(n+i,i) u^i
        beta:   u^(n+1)     * (1-u)^k * sum_{i<=n-k} C(n+i,i) (1-u)^i
    """
    rows = [[(-1) ** r * comb(m, r) for r in range(m + 1)] for m in range(n + 2)]
    alpha, beta = [], []
    for k in range(n + 1):
        a = [0] * (2 * n + 2)
        b = [0] * (2 * n + 2)
        for i in range(n - k + 1):
            c = comb(n + i, i)
            for r, v in enumerate(rows[n + 1]):
                a[k + i + r] += c * v
            for r, v in enumerate(rows[k + i]):
                b[n + 1 + r] += c * v
        alpha.append(a)
        beta.append(b)
    return alpha, beta


def two_point_spline(data: EndpointData, n: int) -> SplineApproximant:
    """Build the n-th order two-point Hermite interpolant, exactly.

    The interpolant is expanded in the normalized variable u = (x - alpha) /
    (beta - alpha), where each endpoint polynomial has integer coefficients
    (`_hermite_basis`) and only the scalars width^k f^(k)/k! carry pi; the
    affine back-substitution to x then needs only the reciprocal of
    beta - alpha, which must be a single pi-power term (true for every
    interval used here).

    Each scaled integer coefficient is added into its power in the order
    alpha then beta endpoint, k ascending, and `substitute_affine` keeps
    the order too, so every coefficient's `terms` have one fixed insertion
    order.  `to_ext_real` sums the terms in that order, so the order is
    part of the output: it fixes the rounding of printed decimals.
    """
    data.validate(n)
    width = data.beta - data.alpha
    inv_width = width.inverse()

    width_powers = [PiRational.one()]
    for _ in range(n):
        width_powers.append(width_powers[-1] * width)
    scaled = []
    alpha_basis, beta_basis = _hermite_basis(n)
    for derivs, sign, basis in (
        (data.derivs_alpha, 1, alpha_basis),
        (data.derivs_beta, -1, beta_basis),
    ):
        for k, fk in enumerate(derivs):
            if isinstance(fk, PiRational) and fk.is_zero():
                continue
            scalar = width_powers[k] * fk * Fraction(sign**k, factorial(k))
            scaled.append((scalar, basis[k]))

    total = Poly(combine_rows(scaled, 2 * n + 2), Var.X_ON_0_HALFPI)
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


@cache
def cosine_spline(n: int) -> SplineApproximant:
    """n-th order spline approximant to cos(y) on [0, pi/2].

    Equal, coefficient by coefficient, to the sine spline reflected through
    pi/2 (and to the generic interpolant fed with cosine endpoint data).
    Built once per order and shared, like `sine_spline`.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return SplineApproximant(
        order=n, poly=reflect_half_pi(sine_spline(n).poly), target="cos"
    )
