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

    def validate(self):
        if not self.derivs_alpha or len(self.derivs_alpha) != len(self.derivs_beta):
            raise ValueError(
                "each endpoint needs the same nonempty list of derivative values"
            )
        a = self.alpha.to_ext_real(30)
        b = self.beta.to_ext_real(30)
        if not a < b:
            raise ValueError("alpha must be strictly below beta")


def _hermite_basis(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer coefficients in u of the order-n endpoint polynomials, k = 0..n:

        alpha:  (1-u)^(n+1) * u^k     * sum_{i<=n-k} C(n+i,i) u^i
        beta:   u^(n+1)     * (1-u)^k * sum_{i<=n-k} C(n+i,i) (1-u)^i

    Built in O(n^2): beta_0 = 1 - alpha_0 (the spline of f = 1), then
    alpha_k = u alpha_(k-1) - c_k w and beta_k = (1-u) beta_(k-1) - c_k w,
    with c_k = C(2n+1-k, n+1-k) and w = u^(n+1) (1-u)^(n+1).
    """
    size = 2 * n + 3  # w and the shifted rows reach u^(2n+2), which cancels
    w = [0] * (n + 1) + [(-1) ** r * comb(n + 1, r) for r in range(n + 2)]
    a = [0] * size
    for i in range(n + 1):
        c = comb(n + i, i)
        for r in range(n + 2):
            a[i + r] += c * w[n + 1 + r]
    b = [-v for v in a]
    b[0] += 1
    alpha, beta = [a], [b]
    for k in range(1, n + 1):
        c = comb(2 * n + 1 - k, n + 1 - k)
        a = [p - c * q for p, q in zip([0] + a[:-1], w)]
        b = [p - s - c * q for p, s, q in zip(b, [0] + b[:-1], w)]
        alpha.append(a)
        beta.append(b)
    return [a[:-1] for a in alpha], [b[:-1] for b in beta]


def two_point_spline(data: EndpointData) -> Poly:
    """Build the two-point Hermite interpolant of `data`, exactly; its order
    n is one less than the length of each derivative list.

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
    data.validate()
    n = len(data.derivs_alpha) - 1
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
    return total.substitute_affine(-data.alpha * inv_width, inv_width)


def sine_endpoint_data(n: int) -> EndpointData:
    """Sine data on [0, pi/2]: f^(k)(x) = sin(x + k*pi/2)."""
    return EndpointData(
        alpha=PiRational.zero(),
        beta=HALF_PI,
        derivs_alpha=tuple(_sin_quarter(k) for k in range(n + 1)),
        derivs_beta=tuple(_sin_quarter(k + 1) for k in range(n + 1)),
    )


@cache
def sine_spline(n: int) -> Poly:
    """n-th order spline approximant to sin(x) on [0, pi/2], exact coefficients.

    Built once per order and shared by every caller: treat the result as
    immutable.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return two_point_spline(sine_endpoint_data(n))


def reflect_half_pi(p: Poly) -> Poly:
    """Recompose p(pi/2 - y) as a polynomial in y."""
    return p.substitute_affine(HALF_PI, PiRational.from_rational(-1))


@cache
def cosine_spline(n: int) -> Poly:
    """n-th order spline approximant to cos(y) on [0, pi/2].

    Equal, coefficient by coefficient, to the sine spline reflected through
    pi/2 (and to the generic interpolant fed with cosine endpoint data).
    Built once per order and shared, like `sine_spline`.
    """
    return reflect_half_pi(sine_spline(n))
