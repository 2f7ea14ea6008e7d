"""Seeded input draws and exact lattice formulas shared by the workloads.

Inputs are drawn with the standard library only: the benchmark makes its own
inputs and never calls library code to do so.  The exact lattice count
uses numpy.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction


class CheckFailed(Exception):
    """An operation returned, but its result broke an identity it must hold."""


def rng_for(seed: int, workload: str, block) -> random.Random:
    """Independent stream for one block of one workload (string seeds are
    hashed with SHA-512, so the stream does not depend on PYTHONHASHSEED)."""
    return random.Random(f"{seed}/{workload}/{block}")


GOLDEN = (math.sqrt(5) - 1) / 2


def strata(rng: random.Random, count: int, shift: float, index: int) -> list:
    """``count`` points of [0, 1), one in each of ``count`` equal strata, in
    seeded order.

    The offset inside the strata is ``shift + index * GOLDEN`` (mod 1), with
    ``shift`` drawn once per run: successive blocks sweep every stratum
    evenly, so the work a run does barely depends on the seed even where the
    cost of one operation spans orders of magnitude.
    """
    offset = (shift + index * GOLDEN) % 1.0
    points = [(i + offset) / count for i in range(count)]
    rng.shuffle(points)
    return points


def log_uniform(low: float, high: float, u: float) -> float:
    return low * (high / low) ** u


def family_terms(rng: random.Random, dimension: int, max_degree: int = 6,
                 max_terms: int = 6, bound: int = 5,
                 complex_coefficients: bool = False, term_count=None) -> list:
    """Random sparse polynomial as ``[((q, p, 0), (re, im)), ...]``.

    Draws in the same order as the acceptance-test family (a term count, then
    per term a degree scattered over the 2*d variables and nonzero integer
    coefficients), so the family seed reproduces the same triples; a given
    ``term_count`` replaces the first draw.
    """
    nonzero = [c for c in range(-bound, bound + 1) if c]
    terms = []
    if term_count is None:
        term_count = rng.randint(1, max_terms)
    for _ in range(term_count):
        exponents = [0] * (2 * dimension)
        for _ in range(rng.randint(0, max_degree)):
            exponents[rng.randrange(2 * dimension)] += 1
        real = rng.choice(nonzero)
        imag = rng.choice(nonzero) if complex_coefficients else 0
        terms.append(((tuple(exponents[:dimension]), tuple(exponents[dimension:]), 0),
                      (real, imag)))
    return terms


def triple_work(f: list, g: list, h: list) -> int:
    """Cost proxy of the associativity check on three ``family_terms`` lists:
    over all term triples, the series lengths of (f*g)*h plus f*(g*h)."""
    def degrees(terms):
        return [sum(q) + sum(p) for (q, p, _), _ in terms]

    total = 0
    for a in degrees(f):
        for b in degrees(g):
            for c in degrees(h):
                total += ((1 + min(a, b)) * (1 + min(a + b, c))
                          + (1 + min(b, c)) * (1 + min(a, b + c)))
    return total


def squared_floor(radius: float) -> int:
    """floor(radius**2), exactly."""
    return math.floor(Fraction(radius) ** 2)


def positive_pairs(m: int) -> int:
    """#{(a, b) : a, b >= 1, a*a + b*b <= m}."""
    return sum(math.isqrt(m - a * a) for a in range(1, math.isqrt(max(m - 1, 0)) + 1))


def census_rows(m: int, standing: bool) -> int:
    """(n1, n2) rows whose n3 column the O(R^2) census sums, at floor(R^2) = m.

    Standing (octant) rows need a slack of at least 1 left for n3 >= 1;
    periodic rows range over all integer pairs inside the disc.
    """
    if standing:
        return positive_pairs(m - 1)
    r = math.isqrt(m)
    return sum(2 * math.isqrt(m - a * a) + 1 for a in range(-r, r + 1))


def octant_points(m: int) -> int:
    """#{(a, b, c) : a, b, c >= 1, a*a + b*b + c*c <= m}, exactly.

    Sums isqrt(m - a*a - b*b) with numpy, one row of b per a: a float
    square root corrected by one step is exact far beyond any radius here.
    """
    import numpy as np
    r = math.isqrt(m)
    b_squared = np.arange(1, r + 1, dtype=np.int64) ** 2
    total = 0
    for a in range(1, r + 1):
        slack = m - a * a - b_squared
        slack = slack[slack > 0]
        if not slack.size:
            break
        top = np.sqrt(slack).astype(np.int64)
        top -= top * top > slack
        top += (top + 1) * (top + 1) <= slack
        total += int(top.sum())
    return total


def lattice_points(m: int, standing: bool) -> int:
    """Lattice modes with |n|^2 <= m: positive triples (standing) or nonzero
    integer triples (periodic: 8 octants, 12 quarter planes, 6 half axes)."""
    octant = octant_points(m)
    if standing:
        return octant
    return 8 * octant + 12 * positive_pairs(m) + 6 * math.isqrt(m)


def percentile_tail(values: list):
    """(value, percentile) at the highest percentile that still has at least
    ten samples above it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def reference_work_s() -> float:
    """Seconds taken by a fixed piece of pure-Python work (integer, tuple and
    dict operations, 5-10 ms), which no library change can alter."""
    started = time.perf_counter()
    table: dict = {}
    for i in range(20_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - started
