"""Star product, star commutator, Poisson bracket and the classical limit.

The star product deforms pointwise multiplication with an exponential of the
antisymmetric bidifferential operator

    sum_i ( d/dq_i acting left * d/dp_i acting right
          - d/dp_i acting left * d/dq_i acting right )

scaled by i*hbar/N.  On monomials the exponential sums in closed form
(Groenewold 1946; Zachos, Fairlie and Curtright 2005).  In one dimension

    q^a p^b (star) q^c p^d = sum_k w_k (i*hbar/N)**k q^(a+c-k) p^(b+d-k),
    w_k = sum over s + t = k of (-1)**t s! t! C(a,s) C(d,s) C(b,t) C(c,t),

with integer weights and w_0 = 1, and in d dimensions the product is the
tensor product of the one-dimensional weights.  The series stops at
k = min(a, d) + min(b, c) per dimension, so every result here is exact.
Each function here is one pass of the kernel ``algebra._moyal_product`` over
some of its layers k, with the step 1/N (times hbar when hbar is numeric):
all layers for the star product, the odd layers doubled for the commutator
(layer k of g (star) f is (-1)**k times layer k of f (star) g, so the even
ones cancel), that pass over 2i*hbar/N for the classical-limit bracket, and
layer 1 without its factor i*hbar/N for the Poisson bracket.  ``_series``
checks the operands once and passes the layers start, start + stride, ...
below a stop, by default the lower total degree plus one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import PhasePolynomial, _moyal_product, exact_fraction
from .units import instance, nonnegative, positive


@dataclass(frozen=True)
class DeformationParameter:
    """Deformation strength and treatment of hbar.

    ``N`` is the positive constant dividing hbar in the deformation kernel;
    ``math.inf`` selects the exact commutative (free-field) limit, with no
    float noise.  ``hbar_value=None`` keeps hbar as a formal grading symbol;
    a number substitutes it into the coefficients instead.
    """

    N: float = 2.0
    hbar_value: Optional[float] = None

    def __post_init__(self):
        positive("N", self.N, finite=False)
        if self.hbar_value is not None:
            nonnegative("hbar_value", self.hbar_value)

    @property
    def symbolic_hbar(self) -> bool:
        return self.hbar_value is None

    @property
    def inverse_n(self) -> Fraction:
        """Exact 1/N; exactly zero in the commutative limit."""
        if math.isinf(self.N):
            return Fraction(0)
        return Fraction(1) / exact_fraction(self.N)


def _check_operands(f: PhasePolynomial, g: PhasePolynomial) -> None:
    instance("f", f, PhasePolynomial)
    f._coerce(instance("g", g, PhasePolynomial))  # the dimension rule


def _series(f: PhasePolynomial, g: PhasePolynomial, param: DeformationParameter,
            start: int = 0, stride: int = 1, stop: Optional[int] = None,
            **selection) -> PhasePolynomial:
    """One kernel pass over layers start, start + stride, ... below ``stop`` of
    f (star) g; no layer above the lower total degree can be nonzero."""
    _check_operands(f, g)
    instance("param", param, DeformationParameter)
    if stop is None:
        stop = min(f.total_degree(), g.total_degree()) + 1
    step = param.inverse_n
    if not param.symbolic_hbar:
        step *= exact_fraction(param.hbar_value)
    return _moyal_product(f, g, step, range(start, stop, stride), param.symbolic_hbar,
                          **selection)


def star_product(f: PhasePolynomial, g: PhasePolynomial,
                 param: DeformationParameter = DeformationParameter()) -> PhasePolynomial:
    """The full star product f (star) g, exact to all orders."""
    return _series(f, g, param)


def star_first_order(f: PhasePolynomial, g: PhasePolynomial,
                     param: DeformationParameter = DeformationParameter()) -> PhasePolynomial:
    """Star product truncated to first order in hbar/N.

    Agrees exactly with :func:`star_product` whenever either argument has
    phase degree at most one; otherwise they differ from grade hbar**2 up.
    """
    return _series(f, g, param, stop=2)


def star_commutator(f: PhasePolynomial, g: PhasePolynomial,
                    param: DeformationParameter = DeformationParameter()) -> PhasePolynomial:
    """f (star) g - g (star) f, computed as twice the odd layers of f (star) g.

    For canonical pairs this is i*hbar*(2/N)*delta_ij, which reduces to the
    canonical commutation value i*hbar*delta_ij exactly when N = 2.
    """
    return _series(f, g, param, 1, 2, factor=2)


def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Classical Poisson bracket {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).

    It is layer 1 of the star-product kernel without its factor i*hbar/N.
    """
    _check_operands(f, g)
    return _moyal_product(f, g, 1, range(1, 2), graded=False, lower=1)


def classical_limit_bracket(f: PhasePolynomial, g: PhasePolynomial,
                            param: DeformationParameter = DeformationParameter()) -> PhasePolynomial:
    """The star commutator divided by 2*i*hbar/N, with the grade lowered by one.

    Its hbar**0 component equals the Poisson bracket, which is the
    correspondence that makes the deformation a quantization.  Requires the
    symbolic hbar treatment (the grading must be lowered) and finite N.
    """
    instance("param", param, DeformationParameter)
    if not param.symbolic_hbar:
        raise ValueError("classical_limit_bracket requires symbolic hbar treatment")
    if math.isinf(param.N):
        raise ValueError("classical_limit_bracket requires finite N")
    return _series(f, g, param, 1, 2, lower=1)
