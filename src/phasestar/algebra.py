"""Exact sparse polynomial algebra over phase space.

A polynomial lives over ``d`` position variables (rendered ``q1 .. qd``),
``d`` conjugate momenta (``p1 .. pd``) and a formal grading symbol ``hbar``.
Floats entering through the public constructors are converted to the dyadic
rational they denote, so identities hold under ``==`` with no tolerances.

A polynomial stores one integer D > 0 and, per term, a Gaussian-integer pair
(x, y) for the coefficient (x + i*y) / D, keyed by a plain (q, p, hbar power)
tuple that compares and hashes like ``MultiIndex``.  The form is canonical,
gcd(D, every x, every y) = 1 and no pair is (0, 0), so ``==`` is a
structural test.  Every polynomial is put in that form by ``_reduced``
(through ``_sum`` for sums), the constructor's included, and every scalar
enters as the triple (x, y, D) that ``_gaussian`` reads.  The public
``terms`` mapping is built on first access and cached; only it turns a
polynomial's pairs back into ComplexFraction values.  Substituting a number
for ``hbar`` is exact too: every nonzero term is kept.

Pointwise multiplication and every star-product route are one kernel,
``_moyal_product``: the closed-form product of two monomials with integer
weights from ``_moyal_weights``, summed on integers and made canonical by
one gcd pass.  The weights factor by dimension, so the kernel reads each
dimension's split table (layer, exponents, weight) from one bounded cache,
``_moyal_splits``, and combines the tables of a term pair.  A range of
layers selects what it computes: layer 0 is pointwise multiplication, the
odd layers doubled the star commutator and layer 1 the Poisson bracket.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .units import finite, integer, nonnegative

Scalar = Union[int, float, complex, Fraction, "ComplexFraction"]

# Largest phase-space dimension d any polynomial, parse or random draw accepts;
# star_product(q1, p1) takes about 11 ms at d = 1000 and grows as d**2.
MAX_DIMENSION = 1000


def exact_fraction(value: Union[int, float, Fraction]) -> Fraction:
    """Convert a real number to the exact Fraction it denotes.

    Floats (numpy's too) map to their exact dyadic value, so no rounding
    happens here.  NaN and infinities are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value!r}")
        return Fraction(value)
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, numbers.Real):
        try:  # inf and nan have no integer ratio
            return Fraction(*value.as_integer_ratio())
        except (OverflowError, ValueError):
            raise ValueError(f"value must be finite, got {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact real number")


def _numeric(method):
    """A ComplexFraction binary operator that reads its operand with
    ``from_value``; an operand that is no number gives NotImplemented, so
    Python tries the other operand's reflected method."""
    @functools.wraps(method)
    def operator(self, other):
        try:
            other = ComplexFraction.from_value(other)
        except TypeError:
            return NotImplemented
        return method(self, other)
    return operator


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

    @_numeric
    def __add__(self, other: Scalar) -> "ComplexFraction":
        return ComplexFraction(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    @_numeric
    def __sub__(self, other: Scalar) -> "ComplexFraction":
        return self + -other

    @_numeric
    def __rsub__(self, other: Scalar) -> "ComplexFraction":
        return other - self

    def __neg__(self) -> "ComplexFraction":
        return ComplexFraction(-self.real, -self.imag)

    @_numeric
    def __mul__(self, other: Scalar) -> "ComplexFraction":
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return ComplexFraction(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    @_numeric
    def __truediv__(self, other: Scalar) -> "ComplexFraction":
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
        # CPython's complex hash, so equal int, float, Fraction and complex
        # values hash alike; hash() itself turns -1 into -2, as complex does
        m = 1 << sys.hash_info.width
        h = (hash(self.real) + sys.hash_info.imag * hash(self.imag)) % m
        return h - m if h >= m >> 1 else h

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
    Both methods also accept a plain (q, p, hbar) tuple, the internal key.
    """

    q_exponents: tuple
    p_exponents: tuple
    hbar_power: int = 0

    def phase_degree(self) -> int:
        """Total degree in the q and p variables; the hbar grade is separate."""
        return sum(self[0]) + sum(self[1])

    def sort_key(self):
        """Canonical term ordering: hbar grade, then total degree, then
        descending lexicographic on the concatenated exponent vector (so
        q-heavy monomials print first)."""
        q, p, hbar_power = self
        exps = q + p
        return (hbar_power, sum(exps), tuple(-e for e in exps))


def _checked_dimension(dimension) -> int:
    """``dimension`` as a plain int by the integer rule, at least 1 and at
    most ``MAX_DIMENSION``."""
    dimension = integer("dimension", dimension, 1)
    if dimension > MAX_DIMENSION:
        raise ValueError(f"dimension {dimension} exceeds the limit of {MAX_DIMENSION}")
    return dimension


def _validated_index(index, dimension: int) -> tuple:
    try:
        q_exponents, p_exponents, hbar_power = index
        q_exponents, p_exponents = tuple(q_exponents), tuple(p_exponents)
    except (TypeError, ValueError):
        raise ValueError("a term key must be a (q_exponents, p_exponents, "
                         f"hbar_power) triple, got {index!r}") from None
    if len(q_exponents) != dimension or len(p_exponents) != dimension:
        raise ValueError(
            f"exponent vectors must have length {dimension}, got "
            f"{len(q_exponents)} and {len(p_exponents)}")
    return (tuple(integer("exponent", e) for e in q_exponents),
            tuple(integer("exponent", e) for e in p_exponents),
            integer("hbar_power", hbar_power))


def _gaussian(value: Scalar) -> tuple:
    """A scalar's exact value (x + i*y)/D as (x, y, D), with the least D > 0.
    int and Fraction are read directly, anything else through ``from_value``:
    TypeError for a value that is no number, ValueError for inf or nan."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    value = ComplexFraction.from_value(value)
    re, im = value.real, value.imag
    den = math.lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


class PhasePolynomial:
    """Sparse polynomial in q-variables, p-variables and the hbar grading.

    Instances are immutable; all arithmetic returns new polynomials.  The
    zero polynomial has no terms, and no stored coefficient is ever exactly
    zero.
    """

    __slots__ = ("_dimension", "_den", "_terms", "_view")

    def __init__(self, dimension: int,
                 terms: Union[Mapping, Iterable] = ()):
        dimension = _checked_dimension(dimension)
        items = terms.items() if isinstance(terms, Mapping) else terms
        # each key is validated before its coefficient is read
        read = [(_validated_index(index, dimension), _gaussian(coefficient))
                for index, coefficient in items]
        poly = _sum(dimension, [(den, {key: (x, y)}) for key, (x, y, den) in read])
        self._init(dimension, poly._den, poly._terms)

    def _init(self, dimension: int, den: int, rows: dict) -> None:
        object.__setattr__(self, "_dimension", dimension)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_terms", rows)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, name, value):
        raise AttributeError("PhasePolynomial is immutable")

    @classmethod
    def _from_clean(cls, dimension: int, terms: Mapping) -> "PhasePolynomial":
        # the constructor under the name tests/star_oracle.py calls
        return cls(dimension, terms)

    @classmethod
    def _from_rows(cls, dimension: int, den: int, rows: dict) -> "PhasePolynomial":
        # den and the {key: (x, y)} rows must already be canonical
        poly = object.__new__(cls)
        poly._init(dimension, den, rows)
        return poly

    @classmethod
    def zero(cls, dimension: int) -> "PhasePolynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: Scalar) -> "PhasePolynomial":
        return cls.hbar(dimension, 0, value)

    @classmethod
    def variable_q(cls, dimension: int, index: int = 0) -> "PhasePolynomial":
        """The monomial q_{index+1} (0-based index, rendered 1-based)."""
        cls._check_variable_index(index, dimension)
        unit = tuple(int(i == index) for i in range(dimension))
        return cls.monomial(dimension, unit, (0,) * dimension)

    @classmethod
    def variable_p(cls, dimension: int, index: int = 0) -> "PhasePolynomial":
        """The monomial p_{index+1} (0-based index, rendered 1-based)."""
        cls._check_variable_index(index, dimension)
        unit = tuple(int(i == index) for i in range(dimension))
        return cls.monomial(dimension, (0,) * dimension, unit)

    @classmethod
    def hbar(cls, dimension: int, power: int = 1, coefficient: Scalar = 1) -> "PhasePolynomial":
        zero_exp = (0,) * _checked_dimension(dimension)
        return cls(dimension, [(MultiIndex(zero_exp, zero_exp, power), coefficient)])

    @classmethod
    def monomial(cls, dimension: int, q_exponents: Sequence[int],
                 p_exponents: Sequence[int], hbar_power: int = 0,
                 coefficient: Scalar = 1) -> "PhasePolynomial":
        for name, exponents in (("q_exponents", q_exponents), ("p_exponents", p_exponents)):
            if not isinstance(exponents, Iterable):
                raise ValueError(f"{name} must be a sequence of integers, got {exponents!r}")
        index = MultiIndex(tuple(q_exponents), tuple(p_exponents), hbar_power)
        return cls(dimension, [(index, coefficient)])

    @staticmethod
    def _check_variable_index(index: int, dimension: int) -> None:
        if integer("index", index) >= _checked_dimension(dimension):
            raise ValueError(
                f"variable index {index} out of range for dimension {dimension}")

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def terms(self) -> Mapping:
        """Read-only mapping MultiIndex -> ComplexFraction, cached on first
        access (threads racing on it build equal mappings; one is kept)."""
        view = self._view
        if view is None:
            den = self._den
            view = MappingProxyType({
                MultiIndex._make(key): ComplexFraction(Fraction(x, den), Fraction(y, den))
                for key, (x, y) in self._terms.items()})
            object.__setattr__(self, "_view", view)
        return view

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Largest q-plus-p degree over all terms (0 for the zero polynomial)."""
        return max(map(MultiIndex.phase_degree, self._terms), default=0)

    def min_hbar_power(self):
        """Smallest hbar grade present, or None for the zero polynomial."""
        return min((key[2] for key in self._terms), default=None)

    def hbar_component(self, power: int) -> "PhasePolynomial":
        """The coefficient polynomial of hbar**power (its grade reset to 0)."""
        power = integer("power", power)
        return _reduced(self._dimension, self._den, {
            (q, p, 0): pair for (q, p, h), pair in self._terms.items() if h == power})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return (self._dimension == other._dimension and self._den == other._den
                and self._terms == other._terms)

    def __repr__(self):
        return f"PhasePolynomial(d={self._dimension}, terms={len(self._terms)})"

    def __str__(self):
        from .expressions import format_canonical
        return format_canonical(self)

    def _coerce(self, other) -> "PhasePolynomial":
        if isinstance(other, PhasePolynomial):
            if other._dimension != self._dimension:
                raise ValueError(
                    f"dimension mismatch: {self._dimension} vs {other._dimension}")
            return other
        return PhasePolynomial.constant(self._dimension, other)

    def __add__(self, other) -> "PhasePolynomial":
        other = self._coerce(other)
        return _sum(self._dimension, ((self._den, self._terms), (other._den, other._terms)))

    __radd__ = __add__

    def __sub__(self, other) -> "PhasePolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "PhasePolynomial":
        return self._coerce(other) - self

    def __neg__(self) -> "PhasePolynomial":
        return PhasePolynomial._from_rows(
            self._dimension, self._den, {k: (-x, -y) for k, (x, y) in self._terms.items()})

    def __mul__(self, other) -> "PhasePolynomial":
        if isinstance(other, PhasePolynomial):
            return _moyal_product(self, self._coerce(other), 0, range(1), graded=False)
        a, b, den = _gaussian(other)
        return _reduced(self._dimension, self._den * den, {
            k: (x * a - y * b, x * b + y * a) for k, (x, y) in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PhasePolynomial":
        if isinstance(other, PhasePolynomial):
            raise TypeError("polynomial division is not defined")
        scale = ComplexFraction.from_value(other)
        return self * (ComplexFraction(1) / scale)

    def __pow__(self, exponent: int) -> "PhasePolynomial":
        exponent = integer("exponent", exponent)
        if exponent == 0:
            return PhasePolynomial.constant(self._dimension, 1)
        half = self ** (exponent // 2)
        squared = half * half
        return squared * self if exponent % 2 else squared

    def partial_q(self, index: int) -> "PhasePolynomial":
        """Formal partial derivative with respect to q_{index+1}."""
        return self._partial(0, index)

    def partial_p(self, index: int) -> "PhasePolynomial":
        """Formal partial derivative with respect to p_{index+1}."""
        return self._partial(1, index)

    def _partial(self, slot: int, index: int) -> "PhasePolynomial":
        self._check_variable_index(index, self._dimension)
        out = {}
        for key, (x, y) in self._terms.items():
            exponents = key[slot]
            e = exponents[index]
            if e:
                lowered = list(key)
                lowered[slot] = exponents[:index] + (e - 1,) + exponents[index + 1:]
                out[tuple(lowered)] = (x * e, y * e)
        return _reduced(self._dimension, self._den, out)

    def evaluate(self, point: Sequence[float], hbar_value: float = 0.0) -> complex:
        """Substitute numbers for (q1..qd, p1..pd) and hbar.

        ``point`` lists the q values followed by the p values.  The
        substitution is carried out in exact rational arithmetic and rounded
        once at the end, so it is exact for exactly-representable inputs.
        """
        d = self._dimension
        try:
            size = len(point)
        except TypeError:
            raise ValueError(f"point must be a sequence of {2 * d} real numbers, "
                             f"got {point!r}") from None
        if size != 2 * d:
            raise ValueError(f"point must have length {2 * d}, got {size}")
        nonnegative("hbar_value", hbar_value)
        try:
            values = [exact_fraction(v) for v in (*point, hbar_value)]
        except TypeError:
            raise ValueError(f"point must hold real numbers, got {tuple(point)!r}") from None
        real = imag = 0
        for (q, p, hbar_power), (x, y) in self._terms.items():
            factor = math.prod(v ** e for v, e in zip(values, (*q, *p, hbar_power)) if e)
            real += x * factor
            imag += y * factor
        where = f"the value at {tuple(point)} with hbar_value = {hbar_value!r}"
        return complex(finite(where, float, Fraction(real, self._den)),
                       finite(where, float, Fraction(imag, self._den)))

    def substitute_hbar(self, value: float) -> "PhasePolynomial":
        """Collapse the hbar grading by substituting a numeric value.

        The substitution is exact: every term whose coefficient is not
        exactly zero is kept.
        """
        h = exact_fraction(nonnegative("hbar_value", value))
        top = max((key[2] for key in self._terms), default=0)
        out = {}
        for (q, p, hbar_power), (x, y) in self._terms.items():
            w = h.numerator ** hbar_power * h.denominator ** (top - hbar_power)
            u, v = out.get((q, p, 0), (0, 0))
            out[q, p, 0] = (u + x * w, v + y * w)
        return _reduced(self._dimension, self._den * h.denominator ** top, out)


def _reduced(dimension: int, den: int, pairs: dict) -> PhasePolynomial:
    """The polynomial with {key: (x, y)} pairs over den, put in canonical
    form: zero pairs are dropped and gcd(den, every x, every y) divided out."""
    rows = {key: (x, y) for key, (x, y) in pairs.items() if x or y}
    common = math.gcd(den, *itertools.chain.from_iterable(rows.values())) if den > 1 else 1
    if common != 1:
        den //= common
        rows = {key: (x // common, y // common) for key, (x, y) in rows.items()}
    return PhasePolynomial._from_rows(dimension, den, rows)


def _sum(dimension: int, parts: Sequence) -> PhasePolynomial:
    """The canonical sum of parts (D, {key: (x, y)}), each pairs over D."""
    den = math.lcm(*(part_den for part_den, _ in parts))
    acc = {}
    for part_den, rows in parts:
        m = den // part_den
        for key, (x, y) in rows.items():
            u, v = acc.get(key, (0, 0))
            acc[key] = (u + x * m, v + y * m)
    return _reduced(dimension, den, acc)


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


# One shared (n,) per small exponent, so the cached split tables hold no
# copies of them; a larger exponent gets its own tuple.
_EXPONENTS = tuple((n,) for n in range(256))


def _exponent(n: int) -> tuple:
    return _EXPONENTS[n] if n < len(_EXPONENTS) else (n,)


@functools.lru_cache(maxsize=4096)
def _moyal_splits(a: int, b: int, c: int, d: int) -> tuple:
    """The split table of q^a p^b (star) q^c p^d: (j, (a + c - j,),
    (b + d - j,), w_j) for each nonzero weight of ``_moyal_weights``, in
    ascending j."""
    return tuple((j, _exponent(a + c - j), _exponent(b + d - j), w)
                 for j, w in enumerate(_moyal_weights(a, b, c, d)) if w)


def _moyal_product(f: PhasePolynomial, g: PhasePolynomial,
                   step: Union[int, Fraction], layers: range, graded: bool,
                   lower: int = 0, factor: int = 1) -> PhasePolynomial:
    """factor * sum over k in layers of (i*step)**(k - lower) * (layer k of f (star) g).

    In d dimensions a layer-k term of two monomials is the tensor product of
    one-dimensional layers k_1 + ... + k_d = k.  ``graded`` raises layer k by
    k - lower steps of the hbar grade.  ``star`` lists the selections.

    Each dimension of a term pair contributes its cached ``_moyal_splits``
    table.  In one dimension that table is the pair's split list, read up to
    the top layer; in more, the tables are combined, keeping the splits with
    k <= top.  With step = sn/sd and e = k - lower, layer k is weighted by
    the integer factor * w * sn**e * sd**(top - k), top the last layer, its
    factor i**e applied by swapping and negating the pair; the integer sums
    stand over D_f * D_g * sd**(top - lower).
    """
    sn, sd = step.numerator, step.denominator
    if not sn:  # a zero step leaves only the layer k = lower
        layers = range(lower, lower + 1) if lower in layers else range(0)
    if not layers:
        return PhasePolynomial._from_rows(f._dimension, 1, {})
    top = layers[-1]
    # per layer k: (scale, hbar grade shift, odd e), the sign of i**e folded
    # into the scale; odd e also swaps (re, im) -> (-im, re)
    layer = [(factor * (-1) ** ((k - lower) // 2) * sn ** (k - lower) * sd ** (top - k),
              k - lower if graded else 0, (k - lower) & 1)
             if k in layers else None for k in range(top + 1)]
    acc = {}
    get = acc.get
    for (q1, p1, h1), (x1, y1) in f._terms.items():
        for (q2, p2, h2), (x2, y2) in g._terms.items():
            dims = zip(q1, p1, q2, p2)
            splits = _moyal_splits(*next(dims))
            for a, b, c, d in dims:
                table = _moyal_splits(a, b, c, d)
                splits = [(k + j, q + qj, p + pj, w * wj)
                          for k, q, p, w in splits
                          for j, qj, pj, wj in table if k + j <= top]
            re, im = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
            grade = h1 + h2
            for k, q, p, w in splits:
                if k > top:  # only a one-dimensional table runs past the top
                    break
                entry = layer[k]
                if entry is None:
                    continue
                scale, shift, odd = entry
                w *= scale
                key = (q, p, grade + shift)
                u, v = get(key, (0, 0))
                if odd:
                    acc[key] = (u - im * w, v + re * w)
                else:
                    acc[key] = (u + re * w, v + im * w)
    return _reduced(f._dimension, f._den * g._den * sd ** (top - lower), acc)
