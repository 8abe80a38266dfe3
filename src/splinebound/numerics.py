"""Exact pi-rational scalars, precision-tagged reals and dense polynomials.

Every closed-form coefficient handled by this package is a finite sum
sum_j q_j * pi**j with rational q_j and integer j (negative powers allowed).
`PiRational` stores that sum exactly; `ExtReal` carries an mpmath value
together with the number of significant decimal digits it is good for.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping, Union

import mpmath as mp

_PI_CACHE: dict[int, mp.mpf] = {}


def pi_to_digits(digits: int) -> mp.mpf:
    """pi correct to `digits` significant decimal digits, cached per context."""
    if digits not in _PI_CACHE:
        with mp.workdps(digits + 10):
            _PI_CACHE[digits] = +mp.pi
    return _PI_CACHE[digits]


class PiRational:
    """Exact scalar of the form sum_j q_j * pi**j, q_j rational, j integer.

    Canonical form: fractions in lowest terms (Fraction guarantees this) and
    no zero-valued terms, so structural equality is value equality.
    `terms` is never changed after construction: every operation returns a
    new instance, and `to_ext_real` caches its conversions on that basis.
    """

    __slots__ = ("terms", "_converted")

    def __init__(self, terms: Mapping[int, Union[Fraction, int]] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for j, q in terms.items():
                q = Fraction(q)
                if q != 0:
                    clean[int(j)] = q
        self.terms = clean
        self._converted = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, num, den=1) -> "PiRational":
        return cls({0: Fraction(num, den)})

    @classmethod
    def pi_term(cls, power: int, num, den=1) -> "PiRational":
        """(num/den) * pi**power."""
        return cls({power: Fraction(num, den)})

    @classmethod
    def zero(cls) -> "PiRational":
        return cls()

    @classmethod
    def one(cls) -> "PiRational":
        return cls({0: Fraction(1)})

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "PiRational":
        if isinstance(other, PiRational):
            return other
        if isinstance(other, (int, Fraction)):
            return PiRational({0: Fraction(other)})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for j, q in other.terms.items():
            terms[j] = terms.get(j, Fraction(0)) + q
        return PiRational(terms)

    __radd__ = __add__

    def __neg__(self):
        return PiRational({j: -q for j, q in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for j1, q1 in self.terms.items():
            for j2, q2 in other.terms.items():
                j = j1 + j2
                terms[j] = terms.get(j, Fraction(0)) + q1 * q2
        return PiRational(terms)

    __rmul__ = __mul__

    def inverse(self) -> "PiRational":
        """Exact reciprocal; only single-term values q*pi**j are invertible here."""
        if len(self.terms) != 1:
            raise ValueError("only single-term pi-rationals have a pi-rational inverse")
        ((j, q),) = self.terms.items()
        return PiRational({-j: 1 / q})

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = PiRational.one()
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "PiRational(0)"
        parts = [f"{q}*pi^{j}" if j else f"{q}" for j, q in sorted(self.terms.items())]
        return "PiRational(" + " + ".join(parts) + ")"

    # -- conversion --------------------------------------------------------

    def to_ext_real(self, digits: int) -> "ExtReal":
        """Decimal value correct to `digits` significant digits.

        Converted once per `digits` and kept on the instance: the value
        depends only on `terms` and `digits`, since the conversion sets its
        own working precision.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self._converted is None:
            self._converted = {}
        out = self._converted.get(digits)
        if out is None:
            with mp.workdps(digits + 15):
                pi = mp.pi
                total = mp.mpf(0)
                for j, q in self.terms.items():
                    total += mp.mpf(q.numerator) / q.denominator * pi**j
                value = +total
            out = self._converted[digits] = ExtReal(value, digits)
        return out

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"pi_pow": j, "num": str(q.numerator), "den": str(q.denominator)}
                for j, q in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiRational":
        return cls(
            {
                int(t["pi_pow"]): Fraction(int(t["num"]), int(t["den"]))
                for t in data["terms"]
            }
        )


class ExtReal:
    """Arbitrary-precision real tagged with its significant-digit context.

    Arithmetic between two ExtReal values is carried out at the larger of the
    two contexts; the context travels with the value, there is no global
    precision state.
    """

    __slots__ = ("value", "digits")

    def __init__(self, value, digits: int):
        if digits < 1:
            raise ValueError("digits must be >= 1")
        self.digits = int(digits)
        with mp.workdps(self.digits + 10):
            self.value = mp.mpf(value)

    @classmethod
    def pi(cls, digits: int) -> "ExtReal":
        return cls(pi_to_digits(digits), digits)

    def _binop(self, other, fn):
        if isinstance(other, ExtReal):
            digits = max(self.digits, other.digits)
            ov = other.value
        elif isinstance(other, (int, Fraction, float, mp.mpf)):
            digits = self.digits
            ov = other
        elif isinstance(other, PiRational):
            digits = self.digits
            ov = other.to_ext_real(digits).value
        else:
            return NotImplemented
        with mp.workdps(digits + 10):
            if isinstance(ov, Fraction):
                ov = mp.mpf(ov.numerator) / ov.denominator
            return ExtReal(fn(self.value, mp.mpf(ov)), digits)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, n):
        return self._binop(n, lambda a, b: a**b)

    def __neg__(self):
        return ExtReal(-self.value, self.digits)

    def __abs__(self):
        return ExtReal(abs(self.value), self.digits)

    def _cmp_value(self, other):
        return other.value if isinstance(other, ExtReal) else other

    def __lt__(self, other):
        return self.value < self._cmp_value(other)

    def __le__(self, other):
        return self.value <= self._cmp_value(other)

    def __gt__(self, other):
        return self.value > self._cmp_value(other)

    def __ge__(self, other):
        return self.value >= self._cmp_value(other)

    def __eq__(self, other):
        return self.value == self._cmp_value(other)

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"ExtReal({mp.nstr(self.value, min(self.digits, 20))}, digits={self.digits})"

    def to_ext_real(self, digits: int) -> "ExtReal":
        """This value itself, unrounded: it already carries its own context."""
        return self

    def to_decimal_string(self, digits: int | None = None) -> str:
        d = digits or self.digits
        with mp.workdps(d + 5):
            return mp.nstr(self.value, d, strip_zeros=False)


DEFAULT_DIGITS = 50


def digits_for_bound(expected_bound: float, floor: int = DEFAULT_DIGITS) -> int:
    """Precision context able to resolve a relative error near `expected_bound`."""
    if expected_bound <= 0:
        return floor
    with mp.workdps(30):
        need = 2 * int(mp.ceil(-mp.log10(mp.mpf(expected_bound)))) + 20
    return max(floor, need)


class Var(enum.Enum):
    """Variable convention a polynomial is expressed in."""

    X_ON_0_HALFPI = "x"  # x on [0, pi/2]
    T_ON_0_1 = "t"  # t = 2x/pi on [0, 1]


Coeff = Union[PiRational, ExtReal]


class Poly:
    """Dense univariate polynomial tagged with its variable convention.

    Coefficients are PiRational (exact path) or ExtReal, held in a tuple
    because one Poly can be shared by every caller (`sine_spline` memoises
    its result); trailing zeros are trimmed so the degree is canonical.
    """

    __slots__ = ("coefficients", "variable")

    def __init__(self, coefficients: Iterable[Coeff], variable: Var = Var.X_ON_0_HALFPI):
        coeffs = list(coefficients)
        while coeffs and _is_zero(coeffs[-1]):
            coeffs.pop()
        self.coefficients = tuple(coeffs)
        self.variable = variable

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coeff(self, power: int) -> Coeff:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return PiRational.zero()

    def _check_var(self, other: "Poly"):
        if self.variable is not other.variable:
            raise ValueError(
                f"variable mismatch: {self.variable.value} vs {other.variable.value}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_var(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Poly(
            [self.coeff(i) + other.coeff(i) for i in range(n)], self.variable
        )

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_var(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Poly(
            [self.coeff(i) - other.coeff(i) for i in range(n)], self.variable
        )

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_var(other)
        if not self.coefficients or not other.coefficients:
            return Poly([], self.variable)
        out = [PiRational.zero() for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coefficients):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.variable)

    def scale(self, s) -> "Poly":
        return Poly([c * s for c in self.coefficients], self.variable)

    def __pow__(self, n: int) -> "Poly":
        out = Poly([PiRational.one()], self.variable)
        base = self
        for _ in range(n):
            out = out * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variable is other.variable
            and len(self.coefficients) == len(other.coefficients)
            and all(a == b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __hash__(self):
        return hash((self.variable, self.coefficients))

    def __repr__(self):
        return f"Poly(deg={self.degree}, var={self.variable.value})"

    def derivative(self) -> "Poly":
        return Poly(
            [self.coeff(k) * k for k in range(1, len(self.coefficients))],
            self.variable,
        )

    def substitute_affine(self, a, b, variable: Var | None = None) -> "Poly":
        """p(a + b*y) expanded in y, exactly (Horner over Poly arithmetic)."""
        var = variable or self.variable
        lin = Poly([a, b], var)
        out = Poly([], var)
        for c in reversed(self.coefficients):
            out = out * lin + Poly([c], var)
        return out

    def eval_exact(self, x: PiRational) -> PiRational:
        """Exact evaluation at a pi-rational point."""
        out = PiRational.zero()
        for c in reversed(self.coefficients):
            if not isinstance(c, PiRational):
                raise TypeError("eval_exact requires PiRational coefficients")
            out = out * x + c
        return out


def _is_zero(c: Coeff) -> bool:
    if isinstance(c, PiRational):
        return c.is_zero()
    if isinstance(c, ExtReal):
        return c.value == 0
    return c == 0


def horner_eval(p: Poly, x, digits: int) -> mp.mpf:
    """Nested-multiplication value of p at x, computed at `digits` working digits.

    Each coefficient is read at that context through its `to_ext_real`.
    """
    with mp.workdps(digits + 10):
        x = mp.mpf(x)
        acc = mp.mpf(0)
        for c in reversed(p.coefficients):
            acc = acc * x + c.to_ext_real(digits).value
        return acc


def integrate_over_lambda(p: Poly) -> Poly:
    """Map sum_{k>=1} a_k x^k to sum a_k/k x^k, i.e. integral of p(l)/l dl.

    Requires a zero constant term (the integrand would be singular at 0) and
    the x-on-[0, pi/2] convention.
    """
    if p.variable is not Var.X_ON_0_HALFPI:
        raise ValueError("integration is defined for the x-on-[0, pi/2] convention")
    if p.coefficients and not _is_zero(p.coeff(0)):
        raise ValueError("nonzero constant term: integrand singular at 0")
    out: list[Coeff] = [PiRational.zero()]
    for k in range(1, len(p.coefficients)):
        out.append(p.coeff(k) * Fraction(1, k))
    return Poly(out, p.variable)
