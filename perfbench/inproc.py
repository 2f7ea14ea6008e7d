"""The in-process workloads: symbolic, radiation and cavity.

Each workload makes seeded blocks of operations; a block has a fixed mix of
operation kinds (only the parameters and the order are random), so runs on
different seeds do comparable work.  ``run(kind, params)`` performs one
operation through the tracer and raises ``CheckFailed`` when a result breaks
an identity.  Counters are recorded only while ``counting`` is set, which the
runner does for block 0 of a traced run, so every count is exact for a seed.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from phasestar.algebra import ComplexFraction, MultiIndex, PhasePolynomial
from phasestar.blackbody import (dimensionless_x, ladder_terms_for_tolerance,
                                 spectral_density_ladder_sum, spectrum_sweep,
                                 stefan_boltzmann_integral, wien_peak)
from phasestar.cavity import (PERIODIC, STANDING, CavitySpec, ModeAmplitude,
                              electromagnetic_standing_mode_count,
                              enumerate_modes, field_energy,
                              mode_count_vs_asymptotic)
from phasestar.expressions import format_canonical, parse_expression
from phasestar.oscillator import OscillatorSpec, ladder, oscillator_star_energy
from phasestar.star import (DeformationParameter, classical_limit_bracket,
                            poisson_bracket, star_first_order, star_product)

from common import (CheckFailed, census_rows, family_terms, lattice_points,
                    log_uniform, positive_pairs, reference_work_s, rng_for,
                    squared_floor, strata, triple_work)

INF = math.inf


def polynomial(dimension: int, terms: list) -> PhasePolynomial:
    return PhasePolynomial(dimension, [(index, ComplexFraction(re, im))
                                       for index, (re, im) in terms])


def _float_exact(value: Fraction) -> bool:
    """True when the canonical renderer writes ``value`` without loss."""
    if value.denominator == 1:
        return True
    try:
        return Fraction(float(value)) == value
    except OverflowError:
        return False


def _coefficient_bits(poly: PhasePolynomial) -> int:
    return sum(part.numerator.bit_length() + part.denominator.bit_length()
               for c in poly.terms.values() for part in (c.real, c.imag))


class Workload:
    name = ""
    # Times are scaled to a machine on which the reference work takes this
    # long (about a 2-core shared x86-64 VM with Python 3.11, when quiet).
    NOMINAL_SPEED_S = 0.008

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tr = tracer
        self.counting = False
        shifts = rng_for(seed, self.name, "shifts")
        self.shifts = [shifts.random() for _ in range(8)]

    def block(self, index: int) -> list:
        """Operations ``(kind, params)`` of block ``index``."""
        return self.make_block(rng_for(self.seed, self.name, index), index)

    @staticmethod
    def speed_sample() -> float:
        """Best of three runs of the in-process reference work."""
        return min(reference_work_s() for _ in range(3))

    def strata(self, rng, count: int, variable: int, index: int) -> list:
        return strata(rng, count, self.shifts[variable], index)

    def count(self, name: str, value) -> None:
        if self.counting:
            self.tr.count(name, value)


class Symbolic(Workload):
    """Exact arithmetic and the star kernel; numpy never runs.

    A block is 36 triples from the acceptance family's distribution (18 at
    d = 1, 18 at d = 2), two d = 3 triples with complex coefficients, and 10
    tiny operations that expose per-call overhead.  The cost of one triple
    spans three orders of magnitude, so the triples of each dimension are a
    systematic sample: ``GROUP`` times as many candidates are ranked by
    ``triple_work`` and every ``GROUP``-th one is taken, from a start that
    sweeps the group over successive blocks (``common.strata``).  Every
    candidate is equally likely, and each block holds close to the same
    quantiles of the cost distribution.  N cycles through {2, 3, inf} over
    the rank groups.
    """

    name = "symbolic"
    TINY = ("oscillator", "commutator", "first_order")
    # Triples per block of each dimension.  At d = 3, degree <= 8 and <= 4
    # terms: at degree 10 and 10 terms one triple took from 0.05 s to 10 s,
    # too long for one operation.
    PER_BLOCK = {1: 18, 2: 18, 3: 2}
    GROUP = 30

    @staticmethod
    def draw(rng, d: int) -> list:
        return family_terms(rng, 3, 8, 4, 5, True) if d == 3 else family_terms(rng, d)

    def make_block(self, rng, index):
        ops = []
        for d, count in self.PER_BLOCK.items():
            candidates = sorted(([self.draw(rng, d) for _ in range(3)]
                                 for _ in range(count * self.GROUP)),
                                key=lambda triple: triple_work(*triple))
            start = int(self.GROUP * self.strata(rng, 1, d, index)[0])
            for j in range(count):
                chosen = candidates[j * self.GROUP + start]
                ops.append(("d3" if d == 3 else "family",
                            ((2, 3, INF)[(j + index) % 3],
                             [polynomial(d, terms) for terms in chosen])))
        tiny = 2 * list(self.TINY) + [rng.choice(self.TINY) for _ in range(4)]
        ops += [(kind, self.params(rng, kind)) for kind in tiny]
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> list:
        """Small operations of every kind from a fixed stream, so the
        warm-up costs the same whatever the seed."""
        rng = rng_for(0, self.name, "warm-up")
        ops = [("family", (n, [polynomial(d, family_terms(rng, d, 3, 3, 5, d == 3))
                               for _ in range(3)]))
               for d, n in ((1, 2), (2, INF), (3, 3))]
        return ops + [(kind, self.params(rng, kind)) for kind in self.TINY]

    def params(self, rng, kind):
        n = rng.choice((2, 3, INF))
        if kind == "oscillator":
            return n, rng.randint(1, 64) / 8, rng.randint(0, 20)
        if kind == "commutator":
            d = rng.randint(1, 3)
            return n, d, rng.randrange(d), rng.randrange(d)
        d = rng.choice((1, 2))
        return n, [polynomial(d, family_terms(rng, d, 3, 3)) for _ in range(2)]

    def run(self, kind, params):
        {"family": self._family, "d3": self._family, "oscillator": self._oscillator,
         "commutator": self._commutator, "first_order": self._first_order}[kind](*params)

    def _star(self, f, g, param):
        out = self.tr.call(f"star.product.d{f.dimension}", star_product, f, g, param)
        if self.counting:
            self.tr.count("star.product_calls", 1)
            self.tr.count("star.pair_terms", len(f.terms) * len(g.terms))
            self.tr.count("star.terms_out", len(out.terms))
            self.tr.count("star.series_order", min(f.total_degree(), g.total_degree()))
            self.tr.count("algebra.coeff_bits", _coefficient_bits(out))
        return out

    def _equal(self, a, b, what):
        if not self.tr.call("algebra.eq", operator.eq, a, b):
            raise CheckFailed(what)

    def _family(self, n, polys):
        tr = self.tr
        f, g, h = polys
        param = DeformationParameter(N=n)
        fg = self._star(f, g, param)
        left = self._star(fg, h, param)
        right = self._star(f, self._star(g, h, param), param)
        self._equal(left, right, "(f*g)*h != f*(g*h)")
        self._equal(fg.hbar_component(0), tr.call("algebra.mul", operator.mul, f, g),
                    "grade-0 slice of f*g != pointwise f g")
        if n != INF:
            bracket = tr.call("star.bracket", classical_limit_bracket, f, g, param)
            self._equal(bracket.hbar_component(0),
                        tr.call("star.bracket", poisson_bracket, f, g),
                        "classical-limit bracket != Poisson bracket")
        if all(_float_exact(part) for c in fg.terms.values()
               for part in (c.real, c.imag)):
            text = tr.call("expressions.render", format_canonical, fg)
            parsed = tr.call("expressions.parse", parse_expression, text, f.dimension)
            if tr.call("expressions.render", format_canonical, parsed) != text:
                raise CheckFailed("render -> parse -> render changed the text")
            self.count("expressions.chars", 2 * len(text))

    def _oscillator(self, n, omega, n_max):
        spec = OscillatorSpec(omega=omega, N=n)
        energy = self.tr.call("oscillator.energy", oscillator_star_energy, spec)
        w = Fraction(omega)
        terms = [(MultiIndex((0,), (2,), 0), Fraction(1, 2)),
                 (MultiIndex((2,), (0,), 0), w * w / 2)]
        shift = PhasePolynomial(1) if n == INF else PhasePolynomial.hbar(1, 1, w / n)
        self._equal(energy, PhasePolynomial(1, terms) + shift,
                    "factored energy != (p^2 + w^2 x^2)/2 + hbar w/N")
        reverse = self.tr.call("oscillator.energy", oscillator_star_energy, spec, True)
        self._equal(energy - reverse, shift * 2, "orderings differ by != 2 hbar w/N")
        levels = self.tr.call("oscillator.ladder", ladder, n_max, spec)
        ground = 0.0 if n == INF else omega / n
        if len(levels) != n_max + 1 or levels[0] != ground or not all(
                math.isclose(b - a, omega, rel_tol=1e-12)
                for a, b in zip(levels, levels[1:])):
            raise CheckFailed("ladder is not ground hbar w/N with gap hbar w")

    def _commutator(self, n, d, i, j):
        q = PhasePolynomial.variable_q(d, i)
        p = PhasePolynomial.variable_p(d, j)
        param = DeformationParameter(N=n)
        got = self._star(q, p, param) - self._star(p, q, param)
        if i == j and n != INF:
            expected = PhasePolynomial.hbar(d, 1, ComplexFraction(0, Fraction(2) / n))
        else:
            expected = PhasePolynomial.zero(d)
        self._equal(got, expected, f"[q{i + 1}, p{j + 1}] != 2i hbar delta/N at d={d}")

    def _first_order(self, n, polys):
        f, g = polys
        param = DeformationParameter(N=n)
        got = self.tr.call("star.first_order", star_first_order, f, g, param)
        expected = self.tr.call("algebra.mul", operator.mul, f, g)
        if n != INF:
            bracket = self.tr.call("star.bracket", poisson_bracket, f, g)
            expected = expected + bracket * PhasePolynomial.hbar(
                f.dimension, 1, ComplexFraction(0, Fraction(1) / n))
        self._equal(got, expected, "first order != f g + (i hbar/N){f, g}")


class Radiation(Workload):
    """``blackbody`` and numpy; the star product never runs.

    A block is 8 sweeps whose point counts and lowest x = w/T are stratified
    over [200, 5000] and [1e-4, 1]; the ladder-sum oracle runs on about 8
    points of each sweep, so its length spans 1 to about 6e5 terms.  One
    sweep per block also checks the T**4 quadrature.
    """

    name = "radiation"
    oracle_max_dev = 0.0

    def warm_up(self):
        return [("sweep", (1.0, 0.01, 20.0, 500, "log", True, 64, 128))]

    def make_block(self, rng, index):
        ops = []
        for k, (u_points, u_low, u_high) in enumerate(zip(
                *(self.strata(rng, 8, variable, index) for variable in range(3)))):
            points = round(log_uniform(200, 5000, u_points))
            x_low = log_uniform(1e-4, 1.0, u_low)
            x_high = log_uniform(10 * x_low, 50.0, u_high)
            temperature = log_uniform(0.01, 100.0, rng.random())
            ops.append(("sweep", (temperature, x_low * temperature,
                                  x_high * temperature, points,
                                  ("log", "linear")[k % 2], k % 4 < 2,
                                  max(1, points // 8),
                                  rng.randint(64, 256) if k == 0 else None)))
        return ops

    def run(self, kind, params):
        (temperature, omega_min, omega_max, points, spacing, zero_point,
         stride, quadrature) = params
        tr = self.tr
        rows = tr.call("blackbody.sweep", spectrum_sweep, temperature, omega_min,
                       omega_max, points, spacing, include_zero_point=zero_point)
        if len(rows) != points:
            raise CheckFailed(f"{len(rows)} rows for {points} points")
        for row in rows:
            if row.total_density != row.thermal_density + row.zero_point_density:
                raise CheckFailed(f"total != thermal + zero-point at w={row.omega!r}")
            if not zero_point and row.zero_point_density:
                raise CheckFailed("zero-point term present with it switched off")
            if row.thermal_density > row.omega ** 2 / math.pi ** 2 * temperature:
                raise CheckFailed(f"thermal above Rayleigh-Jeans at w={row.omega!r}")
        for row in rows[::stride]:
            summed = tr.call("blackbody.ladder", spectral_density_ladder_sum,
                             row.omega, temperature, include_zero_point=zero_point)
            deviation = abs(summed.total_density - row.total_density) / (
                row.total_density or 1.0)
            self.oracle_max_dev = max(self.oracle_max_dev, deviation)
            if not deviation < 1e-10:
                raise CheckFailed(f"oracle deviation {deviation:.3e} at w={row.omega!r}")
            if self.counting:
                tr.count("blackbody.ladder_terms", ladder_terms_for_tolerance(
                    dimensionless_x(row.omega, temperature)))
        self.count("blackbody.points", points)
        peak = tr.call("blackbody.peak", wien_peak, temperature)
        if rows[0].omega < peak < rows[-1].omega:
            top = max(range(points), key=lambda k: rows[k].thermal_density)
            if not rows[max(top - 1, 0)].omega <= peak <= rows[min(top + 1, points - 1)].omega:
                raise CheckFailed("thermal argmax more than one grid step from wien_peak")
        if quadrature is None:
            return
        integral, _ = tr.call("blackbody.integral", stefan_boltzmann_integral,
                              quadrature_points=quadrature)
        if not abs(integral - math.pi ** 4 / 15) < 1e-8 * math.pi ** 4 / 15:
            raise CheckFailed(f"integral {integral!r} != pi^4/15")


class Cavity(Workload):
    """One layer used two ways: the O(R^2) census and, below 20k lattice
    points, ``enumerate_modes`` plus ``field_energy``.

    A block is 8 standing radii stratified log-uniformly over [20, 1000],
    4 periodic radii over [20, 400], the pinned census at wL/c = 200, and 12
    standing radii over [20, 33], where the lattice has under 20k points and
    the modes are materialised.  Each query carries its exact lattice count
    (``common.lattice_points``), made with the block and so outside the
    timed operation.  Census costs grow as R^2, so their
    quantiles are steep: without the small radii the median sat where
    neighbouring operations differ by 40 %, and with radii up to 2000 (800
    periodic) a 20 s run held too few heavy operations for a steady tail.
    Now materialising sets the median and the census the tail.
    """

    name = "cavity"
    ENUMERATE_LIMIT = 20_000
    PINNED = 260724

    def __init__(self, seed: int, tracer):
        super().__init__(seed, tracer)
        rng = rng_for(seed, self.name, "amplitudes")
        self.amplitudes = [
            tuple(ModeAmplitude(rng.randint(-64, 64) / 16, rng.randint(-64, 64) / 16)
                  for _ in range(2))
            for _ in range(self.ENUMERATE_LIMIT)]

    def warm_up(self):
        return [self.query("pinned", STANDING, None, 2),
                self.query("census", STANDING, 25.0, 2),
                self.query("census", PERIODIC, 20.0, 3)]

    def make_block(self, rng, index):
        queries = ([self.query("census", STANDING, log_uniform(20, 1000, u),
                               rng.choice((2, 3))) for u in self.strata(rng, 8, 0, index)]
                   + [self.query("census", PERIODIC, log_uniform(20, 400, u),
                                 rng.choice((2, 3))) for u in self.strata(rng, 4, 1, index)]
                   + [self.query("census", STANDING, log_uniform(20, 33, u),
                                 rng.choice((2, 3))) for u in self.strata(rng, 12, 2, index)]
                   + [self.query("pinned", STANDING, None, 2)])
        rng.shuffle(queries)
        return queries

    @staticmethod
    def query(kind, convention, radius, n):
        """(kind, (convention, w_max, floor(R^2), exact lattice points, N))."""
        if kind == "pinned":
            return kind, (convention, 200.0, None, None, n)
        scale = math.pi if convention == STANDING else 2 * math.pi
        omega_max = scale * radius
        m = squared_floor(omega_max / scale)
        return kind, (convention, omega_max, m, lattice_points(m, convention == STANDING), n)

    def run(self, kind, params):
        convention, omega_max, m, exact, n = params
        tr = self.tr
        spec = CavitySpec(boundary_convention=convention)
        report = tr.call("cavity.census", mode_count_vs_asymptotic, spec, omega_max)
        if kind == "pinned":
            if report.exact_count != self.PINNED:
                raise CheckFailed(f"census at wL/c=200 is {report.exact_count}, "
                                  f"pinned {self.PINNED}")
            return
        points = report.exact_count // spec.polarizations_per_mode
        if points != exact:
            raise CheckFailed(f"census {points} lattice points, exact count {exact}")
        self.count("cavity.census_rows", census_rows(m, convention == STANDING))
        self.count("cavity.lattice_points", points)
        if convention == STANDING:
            budget = tr.call("cavity.census", electromagnetic_standing_mode_count,
                             spec, omega_max)
            if budget != 2 * exact + 3 * positive_pairs(m):
                raise CheckFailed("electromagnetic budget != 2 octant + 3 face pairs")
        if points > self.ENUMERATE_LIMIT:
            return
        modes = tr.call("cavity.enumerate", enumerate_modes, spec, omega_max)
        if len(modes) != points:
            raise CheckFailed(f"enumerated {len(modes)} modes, census {points}")
        self.count("cavity.modes_enumerated", len(modes))
        energy = tr.call("cavity.field_energy", field_energy, modes,
                         self.amplitudes[:len(modes)], n)
        if energy.zero_point_per_oscillator != 2 * energy.zero_point_prefactored:
            raise CheckFailed("zero-point conventions do not differ by exactly 2x")


WORKLOADS = {cls.name: cls for cls in (Symbolic, Radiation, Cavity)}
