"""Exact pi-rational scalars and dense polynomials over them.

Every closed-form coefficient handled by this package is a finite sum
sum_j q_j * pi**j with rational q_j and integer j (negative powers allowed).
`PiRational` stores that sum exactly.  A real at a precision is an mpmath
`mpf` passed together with `digits`, the number of significant decimal
digits it is wanted to; the code that uses the pair works at
`mp.workdps(digits + 10)`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterable, Mapping, Union

import mpmath as mp
from mpmath.libmp import from_man_exp


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

    def to_ext_real(self, digits: int) -> mp.mpf:
        """The value as an mpf for `digits` significant digits: summed at
        digits + 15 and rounded to digits + 10.  Terms that cancel by more
        than 15 digits leave fewer correct digits (README, known limitation).

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
            with mp.workdps(digits + 10):
                out = self._converted[digits] = +total
        return out

    def to_decimal_string(self, digits: int) -> str:
        """`digits` significant decimal digits of the value, zeros kept."""
        value = self.to_ext_real(digits)
        with mp.workdps(digits + 5):
            return mp.nstr(value, digits, strip_zeros=False)

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


class Poly:
    """Dense univariate polynomial tagged with its variable convention.

    Coefficients are PiRational, held in a tuple
    because one Poly can be shared by every caller (`sine_spline` memoises
    its result); trailing zeros are trimmed so the degree is canonical.
    Each coefficient keeps its own conversions (`PiRational.to_ext_real`).
    """

    __slots__ = ("coefficients", "variable")

    def __init__(self, coefficients: Iterable[PiRational], variable: Var = Var.X_ON_0_HALFPI):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coefficients = tuple(coeffs)
        self.variable = variable

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coeff(self, power: int) -> PiRational:
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
            if a.is_zero():
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.variable)

    def scale(self, s) -> "Poly":
        return Poly([c * s for c in self.coefficients], self.variable)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("Poly powers must be >= 0")
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

    def substitute_affine(self, a: PiRational, b: PiRational, variable: Var | None = None) -> "Poly":
        """p(a + b*y) expanded in y, exactly.

        Horner's rule, out = out*(a + b*y) + c, held as integer numerators
        of pi-power terms over one shared denominator, so no step reduces a
        fraction; each coefficient becomes a `Fraction` once, at the end.
        The steps, and the points where a cancelled term is dropped, are
        those of the same loop in `PiRational` arithmetic, so every
        coefficient's `terms` come out in the same insertion order too.
        That order matters beyond `==`: `to_ext_real` sums the terms in it,
        and the printed decimals of high orders depend on its rounding.

        With a = 0 and a single-term b the loop only shifts and scales each
        c_m, where nothing merges or cancels, so the result is c_m * b**m
        with each c_m's terms in their own order.  A multi-term b stays on
        the loop: there the order of the products decides which terms cancel.
        """
        var = variable or self.variable
        if a.is_zero() and len(b.terms) == 1:
            ((jb, qb),) = b.terms.items()
            out, scale = [], Fraction(1)
            for m, c in enumerate(self.coefficients):
                out.append(PiRational({j + m * jb: q * scale for j, q in c.terms.items()}))
                scale *= qb
            return Poly(out, var)
        step = lcm(*(q.denominator for f in (a, b) for q in f.terms.values()))
        lin = (_numerators(a, step), _numerators(b, step))
        den = lcm(*(q.denominator for c in self.coefficients for q in c.terms.values()))
        out: list[dict[int, int]] = []
        for c in reversed(self.coefficients):
            den *= step
            nxt: list[dict[int, int]] = [{} for _ in range(len(out) + 1)]
            for i, terms in enumerate(out):
                if terms:
                    for m, f in zip((i, i + 1), lin):
                        _add_into(nxt[m], _times(terms, f))
            _add_into(nxt[0], _numerators(c, den))
            out = nxt
        return Poly(
            [PiRational({j: Fraction(v, den) for j, v in t.items()}) for t in out], var
        )

    def eval_exact(self, x: PiRational) -> PiRational:
        """Exact evaluation at a pi-rational point."""
        out = PiRational.zero()
        for c in reversed(self.coefficients):
            out = out * x + c
        return out


def _signed(v: tuple) -> tuple:
    """An `_mpf_` value as a signed (mantissa, exponent) pair."""
    sign, man, exp, _ = v
    return (-man if sign else man), exp


def _numerators(p: PiRational, den: int) -> dict[int, int]:
    """p's terms as integer numerators over `den`, a multiple of every
    term's denominator."""
    return {j: q.numerator * (den // q.denominator) for j, q in p.terms.items()}


def _times(terms: dict[int, int], factor: dict[int, int]) -> dict[int, int]:
    """Product of two term dicts, cancelled terms dropped after the sum,
    as `PiRational.__mul__` does."""
    if len(factor) == 1:
        # one term: each power shifts, so nothing merges or cancels
        ((j2, v2),) = factor.items()
        return {j1 + j2: v1 * v2 for j1, v1 in terms.items()}
    out: dict[int, int] = {}
    for j1, v1 in terms.items():
        for j2, v2 in factor.items():
            out[j1 + j2] = out.get(j1 + j2, 0) + v1 * v2
    return {j: v for j, v in out.items() if v}


def _add_into(acc: dict[int, int], terms: dict[int, int]) -> None:
    """acc += terms, in place: new powers appended, cancelled ones dropped,
    as `PiRational.__add__` does."""
    for j, v in terms.items():
        v += acc.get(j, 0)
        if v:
            acc[j] = v
        else:
            del acc[j]


def combine_rows(pairs, size: int) -> list:
    """The `size` sums over m of scalar * row[m] for the (PiRational
    scalar, integer row) pairs, each sum added up in pair order.

    The sums run on integer numerators over one shared denominator, with
    the appends and drops of the same sums in `PiRational` arithmetic, so
    every coefficient's `terms` come out in that insertion order; each
    term becomes a `Fraction` once, at the end.
    """
    den = lcm(*(q.denominator for scalar, _ in pairs for q in scalar.terms.values()))
    sums: list[dict[int, int]] = [{} for _ in range(size)]
    for scalar, row in pairs:
        nums = _numerators(scalar, den)
        for m, c in enumerate(row):
            if c:
                _add_into(sums[m], _times(nums, {0: c}))
    return [PiRational({j: Fraction(v, den) for j, v in t.items()}) for t in sums]


def horner_values(p: Poly, xs, digits: int) -> list:
    """Nested-multiplication values of p at each x of `xs`, computed at
    `digits` working digits in one precision context.

    Each step is acc * x + c with each coefficient read once per column at
    that precision through its `to_ext_real`, and rounds as the mpf
    operators do: once to nearest (ties to even) at the working precision
    after the product and once after the sum.  Each x is rounded on entry
    with `mp.mpf(x)`.  The steps run on signed integer mantissas: the
    product and the aligned sum are exact integers, and a correctly rounded
    value of an exact one is unique, so each step gives the bits `mpf_mul`
    and `mpf_add` give.  A zero coefficient's sum is skipped, since adding
    0 returns the rounded product unchanged.
    """
    with mp.workdps(digits + 10):
        prec = mp.mp.prec
        # both operands of a sum hold at most prec + 1 bits, so beyond this
        # exponent gap the smaller lies wholly under half an ulp of the
        # larger, which is then the rounded sum; the shift is not made
        gap = 2 * prec + 8
        coeffs = [_signed(c.to_ext_real(digits)._mpf_) for c in reversed(p.coefficients)]
        out = []
        for x in xs:
            sign, xm, xe, _ = mp.mpf(x)._mpf_
            if not xm and xe:
                raise ValueError(f"horner_values needs a finite x, got {x}")
            if sign:
                xm = -xm
            m = e = 0
            for cm, ce in coeffs:
                if m:
                    m, e = _round(m * xm, e + xe, prec)
                if not cm:
                    continue
                if not m:
                    m, e = cm, ce
                elif e - ce > gap:
                    pass
                elif ce - e > gap:
                    m, e = cm, ce
                elif e >= ce:
                    m, e = _round((m << (e - ce)) + cm, ce, prec)
                else:
                    m, e = _round(m + (cm << (ce - e)), e, prec)
            out.append(mp.make_mpf(from_man_exp(m, e)))
        return out


def _round(m: int, e: int, prec: int) -> tuple:
    """m * 2**e rounded to `prec` significant bits, to nearest with ties
    to even, as a signed (mantissa, exponent) pair.  The shifts floor, so
    the dropped bits read as a remainder in [0, 2**n) for either sign."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    q = m >> (n - 1)
    if q & 1 and (q & 2 or (q << (n - 1)) != m):
        return (q >> 1) + 1, e + n
    return q >> 1, e + n


def pow_rounded(man: int, exp: int, n: int, prec: int, chains: dict) -> tuple:
    """(man * 2**exp)**n as `mpf_pow_int(x, n, prec, round_nearest)` gives
    it, for the normalised mantissa man >= 0 and exponent of an `_mpf_`
    value x and an integer n >= 0, as an unsigned (mantissa, exponent) pair.

    A power of few bits is exact, rounded once to nearest.  Any other is
    mpmath 1.3.0's binary ladder, step for step: at workprec = prec +
    4*bitlen(n) + 4 bits it multiplies the squares x**(2**i) for the set
    bits i of n, lowest first, floor-truncates every product and square
    longer than workprec, and rounds the result once to `prec`.  The chain
    of squares depends only on x and workprec, so `chains`, one dict per x,
    keeps it and every power of that x shares it.
    """
    if n <= 2 or man == 1 or man.bit_length() * n < 1000:
        return _round(man**n, exp * n, prec)
    workprec = prec + 4 * n.bit_length() + 4
    chain = chains.setdefault(workprec, [(man, exp)])
    while len(chain) < n.bit_length():
        m, e = chain[-1]
        m, e = m * m, e + e
        drop = m.bit_length() - workprec
        chain.append((m >> drop, e + drop) if drop > 0 else (m, e))
    pm, pe = 1, 0
    for i in _set_bits(n):
        m, e = chain[i]
        pm, pe = pm * m, pe + e
        drop = pm.bit_length() - workprec
        if drop > 0:
            pm, pe = pm >> drop, pe + drop
    return _round(pm, pe, prec)


@cache
def _set_bits(n: int) -> tuple:
    """Indices of the set bits of n >= 0, lowest first."""
    return tuple(i for i in range(n.bit_length()) if n >> i & 1)


def horner_eval(p: Poly, x, digits: int) -> mp.mpf:
    """p at one point x: `horner_values` of the column [x]."""
    return horner_values(p, [x], digits)[0]


def integrate_over_lambda(p: Poly) -> Poly:
    """Map sum_{k>=1} a_k x^k to sum a_k/k x^k, i.e. integral of p(l)/l dl.

    Requires a zero constant term (the integrand would be singular at 0) and
    the x-on-[0, pi/2] convention.
    """
    if p.variable is not Var.X_ON_0_HALFPI:
        raise ValueError("integration is defined for the x-on-[0, pi/2] convention")
    if p.coefficients and not p.coeff(0).is_zero():
        raise ValueError("nonzero constant term: integrand singular at 0")
    out = [PiRational.zero()]
    for k in range(1, len(p.coefficients)):
        out.append(p.coeff(k) * Fraction(1, k))
    return Poly(out, p.variable)
