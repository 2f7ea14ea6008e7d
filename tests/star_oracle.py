"""Derivative-split star product, kept as an independent oracle.

This is the series the library computed before it switched to the closed-form
monomial kernel: the k-th term of the exponential expands multinomially over
the per-dimension derivative splits.  With q-derivative counts ``a`` (on the
left factor) and p-derivative counts ``b``, the contribution is

    (i*hbar/N)**k * (-1)**|b| / (a! b!) * (D_q^a D_p^b f) * (D_p^a D_q^b g)

summed over all splits with |a| + |b| = k.  It builds whole-polynomial mixed
partials with ``partial_q``/``partial_p`` and never touches the kernel, so it
is a second route to the same exact products.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from phasestar.algebra import ComplexFraction, MultiIndex, PhasePolynomial, exact_fraction
from phasestar.star import DeformationParameter

# i**k for k mod 4
_I_POWERS = (
    ComplexFraction(1, 0),
    ComplexFraction(0, 1),
    ComplexFraction(-1, 0),
    ComplexFraction(0, -1),
)


def _splits(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def _derivative_lookup(f: PhasePolynomial) -> Callable:
    """Memoized mixed partials of f, keyed by (q-counts, p-counts)."""
    d = f.dimension
    zero = (0,) * d
    cache = {(zero, zero): f}

    def lookup(q_counts: tuple, p_counts: tuple) -> PhasePolynomial:
        key = (q_counts, p_counts)
        found = cache.get(key)
        if found is not None:
            return found
        for i in range(d):
            if q_counts[i]:
                lower = q_counts[:i] + (q_counts[i] - 1,) + q_counts[i + 1:]
                result = lookup(lower, p_counts).partial_q(i)
                break
        else:
            for i in range(d):
                if p_counts[i]:
                    lower = p_counts[:i] + (p_counts[i] - 1,) + p_counts[i + 1:]
                    result = lookup(q_counts, lower).partial_p(i)
                    break
        cache[key] = result
        return result

    return lookup


def _accumulate_series(acc: dict, f: PhasePolynomial, g: PhasePolynomial,
                       param: DeformationParameter, k_max: int) -> None:
    """Add the series terms k = 0 .. k_max of f (star) g into acc."""
    d = f.dimension
    inv_n = param.inverse_n
    hbar_frac = None if param.symbolic_hbar else exact_fraction(param.hbar_value)
    left = _derivative_lookup(f)
    right = _derivative_lookup(g)

    for k in range(k_max + 1):
        if k > 0 and inv_n == 0:
            break
        base = inv_n ** k
        if hbar_frac is not None:
            base *= hbar_frac ** k
            if base == 0 and k > 0:
                break
        i_power = _I_POWERS[k % 4]
        grade_shift = k if param.symbolic_hbar else 0
        for split in _splits(k, 2 * d):
            a, b = split[:d], split[d:]
            f_part = left(a, b)
            if f_part.is_zero:
                continue
            g_part = right(b, a)
            if g_part.is_zero:
                continue
            denominator = 1
            for e in split:
                denominator *= math.factorial(e)
            scale = base / denominator
            if sum(b) % 2:
                scale = -scale
            prefactor = ComplexFraction(i_power.real * scale, i_power.imag * scale)
            for i1, c1 in f_part.terms.items():
                for i2, c2 in g_part.terms.items():
                    index = MultiIndex(
                        tuple(x + y for x, y in zip(i1.q_exponents, i2.q_exponents)),
                        tuple(x + y for x, y in zip(i1.p_exponents, i2.p_exponents)),
                        i1.hbar_power + i2.hbar_power + grade_shift)
                    value = c1 * c2 * prefactor
                    prev = acc.get(index)
                    total = value if prev is None else prev + value
                    if total.is_zero():
                        acc.pop(index, None)
                    else:
                        acc[index] = total


def oracle_star_product(f: PhasePolynomial, g: PhasePolynomial,
                        param: DeformationParameter) -> PhasePolynomial:
    """The full star product f (star) g, exact to all orders."""
    acc: dict = {}
    k_max = min(f.total_degree(), g.total_degree())
    _accumulate_series(acc, f, g, param, k_max)
    return PhasePolynomial._from_clean(f.dimension, acc)


def oracle_star_first_order(f: PhasePolynomial, g: PhasePolynomial,
                            param: DeformationParameter) -> PhasePolynomial:
    """Star product truncated to first order in hbar/N."""
    acc: dict = {}
    k_max = min(1, f.total_degree(), g.total_degree())
    _accumulate_series(acc, f, g, param, k_max)
    return PhasePolynomial._from_clean(f.dimension, acc)
