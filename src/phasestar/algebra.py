"""Exact sparse polynomial algebra over phase space.

A polynomial lives over ``d`` position variables (rendered ``q1 .. qd``),
``d`` conjugate momenta (``p1 .. pd``) and a formal grading symbol ``hbar``.
Terms are stored sparsely as a mapping from exponent multi-indices to complex
coefficients whose real and imaginary parts are exact
:class:`fractions.Fraction` values.  Floats entering through the public
constructors are converted to the dyadic rational they denote, so algebraic
identities hold under ``==`` with no tolerances.

``STORAGE_EPSILON`` is applied only when a numeric value is substituted for
the formal ``hbar`` symbol; purely symbolic arithmetic never rounds and never
drops a nonzero coefficient.

Pointwise multiplication and every star product share one kernel,
``_moyal_product``: the closed-form product of two monomials, whose integer
weights come from ``_moyal_weights``.  Pointwise multiplication is its
k = 0 layer.  Inside the kernel coefficients are Gaussian integers: each
operand is rescaled once to integer pairs (x, y) over the lcm of its
denominators, every layer is summed on Python integers, and each surviving
sum is divided back into a reduced ComplexFraction once, at the end.
Polynomials themselves keep storing ComplexFraction coefficients.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, float, complex, Fraction, "ComplexFraction"]

# Coefficients smaller than this in magnitude are dropped after numeric
# substitution of hbar (near-zero float residue).  Never used symbolically.
STORAGE_EPSILON = 1e-15

_ZERO = Fraction(0)
_ONE = Fraction(1)


def exact_fraction(value: Union[int, float, Fraction]) -> Fraction:
    """Convert a real number to the exact Fraction it denotes.

    Floats map to their exact dyadic value, so no rounding happens here.
    NaN and infinities are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact real number")


class ComplexFraction:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Union[int, float, Fraction] = 0,
                 imag: Union[int, float, Fraction] = 0):
        object.__setattr__(self, "real", exact_fraction(real))
        object.__setattr__(self, "imag", exact_fraction(imag))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexFraction is immutable")

    @classmethod
    def from_value(cls, value: Scalar) -> "ComplexFraction":
        if isinstance(value, ComplexFraction):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value, 0)

    def __add__(self, other: Scalar) -> "ComplexFraction":
        other = ComplexFraction.from_value(other)
        return ComplexFraction(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "ComplexFraction":
        other = ComplexFraction.from_value(other)
        return ComplexFraction(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other: Scalar) -> "ComplexFraction":
        return ComplexFraction.from_value(other) - self

    def __neg__(self) -> "ComplexFraction":
        return ComplexFraction(-self.real, -self.imag)

    def __mul__(self, other: Scalar) -> "ComplexFraction":
        other = ComplexFraction.from_value(other)
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return ComplexFraction(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "ComplexFraction":
        other = ComplexFraction.from_value(other)
        denom = other.real * other.real + other.imag * other.imag
        if denom == 0:
            raise ZeroDivisionError("division by zero ComplexFraction")
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return ComplexFraction((a * c + b * d) / denom, (b * c - a * d) / denom)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float, complex, Fraction, ComplexFraction)):
            other = ComplexFraction.from_value(other)
            return self.real == other.real and self.imag == other.imag
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def is_zero(self) -> bool:
        return not self.real and not self.imag

    def magnitude(self) -> float:
        return math.hypot(float(self.real), float(self.imag))

    def as_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __repr__(self):
        return f"ComplexFraction({self.real!r}, {self.imag!r})"


class MultiIndex(NamedTuple):
    """Exponent vector keying one polynomial term.

    ``q_exponents`` and ``p_exponents`` have one entry per phase-space
    dimension; ``hbar_power`` is the grade of the term in the formal hbar.
    """

    q_exponents: tuple
    p_exponents: tuple
    hbar_power: int = 0

    def phase_degree(self) -> int:
        """Total degree in the q and p variables; the hbar grade is separate."""
        return sum(self.q_exponents) + sum(self.p_exponents)

    def sort_key(self):
        """Canonical term ordering: hbar grade, then total degree, then
        descending lexicographic on the concatenated exponent vector (so
        q-heavy monomials print first)."""
        exps = self.q_exponents + self.p_exponents
        return (self.hbar_power, self.phase_degree(), tuple(-e for e in exps))


def _validated_index(index, dimension: int) -> MultiIndex:
    try:
        q_exponents, p_exponents, hbar_power = index
        index = MultiIndex(tuple(q_exponents), tuple(p_exponents), hbar_power)
    except (TypeError, ValueError):
        raise ValueError("a term key must be a (q_exponents, p_exponents, "
                         f"hbar_power) triple, got {index!r}") from None
    if len(index.q_exponents) != dimension or len(index.p_exponents) != dimension:
        raise ValueError(
            f"exponent vectors must have length {dimension}, got "
            f"{len(index.q_exponents)} and {len(index.p_exponents)}")
    for e in index.q_exponents + index.p_exponents + (index.hbar_power,):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponents must be non-negative integers, got {e!r}")
    return index


class PhasePolynomial:
    """Sparse polynomial in q-variables, p-variables and the hbar grading.

    Instances are immutable; all arithmetic returns new polynomials.  The
    zero polynomial has an empty term mapping, and no stored coefficient is
    ever exactly zero.
    """

    __slots__ = ("_dimension", "_terms")

    def __init__(self, dimension: int,
                 terms: Union[Mapping, Iterable] = ()):
        if not isinstance(dimension, int) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean = _accumulate({}, (
            (_validated_index(index, dimension), ComplexFraction.from_value(coefficient))
            for index, coefficient in items))
        object.__setattr__(self, "_dimension", dimension)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PhasePolynomial is immutable")

    @classmethod
    def _from_clean(cls, dimension: int, terms: dict) -> "PhasePolynomial":
        # Internal fast path: terms must already be validated, coefficient
        # types exact, and zero coefficients dropped.
        poly = object.__new__(cls)
        object.__setattr__(poly, "_dimension", dimension)
        object.__setattr__(poly, "_terms", terms)
        return poly

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dimension: int) -> "PhasePolynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: Scalar) -> "PhasePolynomial":
        zero_exp = (0,) * dimension
        return cls(dimension, [(MultiIndex(zero_exp, zero_exp, 0), value)])

    @classmethod
    def variable_q(cls, dimension: int, index: int = 0) -> "PhasePolynomial":
        """The monomial q_{index+1} (0-based index, rendered 1-based)."""
        cls._check_variable_index(index, dimension)
        q = tuple(1 if i == index else 0 for i in range(dimension))
        return cls(dimension, [(MultiIndex(q, (0,) * dimension, 0), 1)])

    @classmethod
    def variable_p(cls, dimension: int, index: int = 0) -> "PhasePolynomial":
        """The monomial p_{index+1} (0-based index, rendered 1-based)."""
        cls._check_variable_index(index, dimension)
        p = tuple(1 if i == index else 0 for i in range(dimension))
        return cls(dimension, [(MultiIndex((0,) * dimension, p, 0), 1)])

    @classmethod
    def hbar(cls, dimension: int, power: int = 1, coefficient: Scalar = 1) -> "PhasePolynomial":
        zero_exp = (0,) * dimension
        return cls(dimension, [(MultiIndex(zero_exp, zero_exp, power), coefficient)])

    @classmethod
    def monomial(cls, dimension: int, q_exponents: Sequence[int],
                 p_exponents: Sequence[int], hbar_power: int = 0,
                 coefficient: Scalar = 1) -> "PhasePolynomial":
        index = MultiIndex(tuple(q_exponents), tuple(p_exponents), hbar_power)
        return cls(dimension, [(index, coefficient)])

    @staticmethod
    def _check_variable_index(index: int, dimension: int) -> None:
        if not 0 <= index < dimension:
            raise ValueError(
                f"variable index {index} out of range for dimension {dimension}")

    # ------------------------------------------------------------------
    # basic queries

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def terms(self) -> Mapping:
        """Read-only view of the term mapping (MultiIndex -> ComplexFraction)."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Largest q-plus-p degree over all terms (0 for the zero polynomial)."""
        return max((index.phase_degree() for index in self._terms), default=0)

    def min_hbar_power(self):
        """Smallest hbar grade present, or None for the zero polynomial."""
        return min((index.hbar_power for index in self._terms), default=None)

    def hbar_component(self, power: int) -> "PhasePolynomial":
        """The coefficient polynomial of hbar**power (its grade reset to 0)."""
        picked = {
            MultiIndex(i.q_exponents, i.p_exponents, 0): c
            for i, c in self._terms.items() if i.hbar_power == power
        }
        return PhasePolynomial._from_clean(self._dimension, picked)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self._dimension == other._dimension and self._terms == other._terms

    def __repr__(self):
        return f"PhasePolynomial(d={self._dimension}, terms={len(self._terms)})"

    def __str__(self):
        from .expressions import format_canonical
        return format_canonical(self)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "PhasePolynomial":
        if isinstance(other, PhasePolynomial):
            if other._dimension != self._dimension:
                raise ValueError(
                    f"dimension mismatch: {self._dimension} vs {other._dimension}")
            return other
        return PhasePolynomial.constant(self._dimension, other)

    def __add__(self, other) -> "PhasePolynomial":
        other = self._coerce(other)
        return PhasePolynomial._from_clean(
            self._dimension, _accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "PhasePolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "PhasePolynomial":
        return self._coerce(other) - self

    def __neg__(self) -> "PhasePolynomial":
        return PhasePolynomial._from_clean(
            self._dimension, {i: -c for i, c in self._terms.items()})

    def __mul__(self, other) -> "PhasePolynomial":
        if not isinstance(other, PhasePolynomial):
            scale = ComplexFraction.from_value(other)
            if scale.is_zero():
                return PhasePolynomial._from_clean(self._dimension, {})
            return PhasePolynomial._from_clean(
                self._dimension, {i: c * scale for i, c in self._terms.items()})
        return _moyal_product(self, self._coerce(other), 0, 0, graded=False)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PhasePolynomial":
        if isinstance(other, PhasePolynomial):
            raise TypeError("polynomial division is not defined")
        scale = ComplexFraction.from_value(other)
        return self * (ComplexFraction(1) / scale)

    def __pow__(self, exponent: int) -> "PhasePolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        if exponent == 0:
            return PhasePolynomial.constant(self._dimension, 1)
        half = self ** (exponent // 2)
        squared = half * half
        return squared * self if exponent % 2 else squared

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial_q(self, index: int) -> "PhasePolynomial":
        """Formal partial derivative with respect to q_{index+1}."""
        return self._partial("q_exponents", index)

    def partial_p(self, index: int) -> "PhasePolynomial":
        """Formal partial derivative with respect to p_{index+1}."""
        return self._partial("p_exponents", index)

    def _partial(self, field: str, index: int) -> "PhasePolynomial":
        self._check_variable_index(index, self._dimension)
        out = {}
        for i, c in self._terms.items():
            exponents = getattr(i, field)
            e = exponents[index]
            if e:
                lowered = exponents[:index] + (e - 1,) + exponents[index + 1:]
                out[i._replace(**{field: lowered})] = c * e
        return PhasePolynomial._from_clean(self._dimension, out)

    def evaluate(self, point: Sequence[float], hbar_value: float = 0.0) -> complex:
        """Substitute numbers for (q1..qd, p1..pd) and hbar.

        ``point`` lists the q values followed by the p values.  The
        substitution is carried out in exact rational arithmetic and rounded
        once at the end, so it is exact for exactly-representable inputs.
        """
        d = self._dimension
        if len(point) != 2 * d:
            raise ValueError(f"point must have length {2 * d}, got {len(point)}")
        if hbar_value < 0:
            raise ValueError(f"hbar_value must be non-negative, got {hbar_value!r}")
        q_values = [exact_fraction(v) for v in point[:d]]
        p_values = [exact_fraction(v) for v in point[d:]]
        h_value = exact_fraction(hbar_value)
        total = ComplexFraction(0)
        for index, coefficient in self._terms.items():
            factor = _ONE
            for value, exponent in zip(q_values, index.q_exponents):
                if exponent:
                    factor *= value ** exponent
            for value, exponent in zip(p_values, index.p_exponents):
                if exponent:
                    factor *= value ** exponent
            if index.hbar_power:
                factor *= h_value ** index.hbar_power
            total = total + coefficient * factor
        return total.as_complex()

    def substitute_hbar(self, value: float) -> "PhasePolynomial":
        """Collapse the hbar grading by substituting a numeric value.

        Terms whose resulting coefficient magnitude falls below
        ``STORAGE_EPSILON`` are dropped (near-zero numeric residue).
        """
        if value < 0:
            raise ValueError(f"hbar value must be non-negative, got {value!r}")
        h = exact_fraction(value)
        out = _accumulate({}, (
            (MultiIndex(i.q_exponents, i.p_exponents, 0),
             c * (h ** i.hbar_power) if i.hbar_power else c)
            for i, c in self._terms.items()))
        pruned = {i: c for i, c in out.items() if c.magnitude() >= STORAGE_EPSILON}
        return PhasePolynomial._from_clean(self._dimension, pruned)


def _accumulate(acc: dict, items: Iterable) -> dict:
    """Add (key, coefficient) pairs into acc, dropping every sum that is
    exactly zero; returns acc."""
    for key, value in items:
        prev = acc.get(key)
        if prev is not None:
            value = prev + value
        if value.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = value
    return acc


@functools.lru_cache(maxsize=4096)
def _moyal_weights(a: int, b: int, c: int, d: int) -> tuple:
    """Integer weights (w_0, w_1, ...) of the one-dimensional product

        q^a p^b (star) q^c p^d = sum_k w_k (i*hbar/N)**k q^(a+c-k) p^(b+d-k),

    w_k = sum over s + t = k of (-1)**t s! t! C(a,s) C(d,s) C(b,t) C(c,t):
    s derivatives pair q on the left with p on the right, t pair p with q.
    """
    weights = [0] * (min(a, d) + min(b, c) + 1)
    for s in range(min(a, d) + 1):
        left = math.factorial(s) * math.comb(a, s) * math.comb(d, s)
        for t in range(min(b, c) + 1):
            term = left * math.factorial(t) * math.comb(b, t) * math.comb(c, t)
            weights[s + t] += -term if t % 2 else term
    return tuple(weights)


def _gaussian(poly: PhasePolynomial) -> tuple:
    """(D, rows): every coefficient of poly as (x + i*y) / D with integers
    x, y, D the lcm of all real and imaginary denominators; each row is
    (q exponents, p exponents, hbar power, x, y)."""
    den = 1
    parts = []
    for index, c in poly._terms.items():
        xn, xd = c.real.as_integer_ratio()
        yn, yd = c.imag.as_integer_ratio()
        den = math.lcm(den, xd, yd)
        parts.append((index, xn, xd, yn, yd))
    return den, [(*index, xn * (den // xd), yn * (den // yd))
                 for index, xn, xd, yn, yd in parts]


def _moyal_product(f: PhasePolynomial, g: PhasePolynomial,
                   step: Union[int, Fraction], k_max: int,
                   graded: bool) -> PhasePolynomial:
    """sum over k <= k_max of (i*step)**k * (layer k of f (star) g).

    In d dimensions a layer-k term of two monomials is the tensor product of
    one-dimensional layers k_1 + ... + k_d = k.  ``graded`` raises layer k by
    k steps of the hbar grade.  Step 0 and cap 0 give pointwise
    multiplication.

    The sums run on Python integers: f and g become Gaussian-integer pairs
    over their denominators D_f and D_g, and with step = sn/sd layer k is
    weighted by the integer w * sn**k * sd**(k_max - k), its factor i**k
    applied by swapping and negating the pair.  Each surviving sum is
    divided once by D_f * D_g * sd**k_max.
    """
    sn, sd = step.numerator, step.denominator
    # sign of i**k folded in; odd layers also swap (re, im) -> (-im, re)
    layer_scale = [(-1) ** (k // 2) * sn ** k * sd ** (k_max - k)
                   for k in range(k_max + 1)]
    den_f, left = _gaussian(f)
    den_g, right = _gaussian(g)
    acc = {}
    for q1, p1, h1, x1, y1 in left:
        for q2, p2, h2, x2, y2 in right:
            splits = [(0, (), (), 1)]  # (k, q exponents, p exponents, weight)
            for a, b, c, d in zip(q1, p1, q2, p2):
                weights = _moyal_weights(a, b, c, d)
                splits = [(k + j, q + (a + c - j,), p + (b + d - j,), w * wj)
                          for k, q, p, w in splits
                          for j, wj in enumerate(weights[:k_max - k + 1]) if wj]
            re, im = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
            grade = h1 + h2
            for k, q, p, w in splits:
                w *= layer_scale[k]
                key = (q, p, grade + k if graded else grade)
                u, v = (-im * w, re * w) if k & 1 else (re * w, im * w)
                prev = acc.get(key)
                if prev is None:
                    acc[key] = [u, v]
                else:
                    prev[0] += u
                    prev[1] += v
    den = den_f * den_g * sd ** k_max
    return PhasePolynomial._from_clean(f._dimension, {
        MultiIndex._make(key): ComplexFraction(Fraction(u, den) if u else _ZERO,
                                               Fraction(v, den) if v else _ZERO)
        for key, (u, v) in acc.items() if u or v})
