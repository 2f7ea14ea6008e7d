"""The columnar ``field_energy`` against the Python loop it replaced, and
the premises its squares rest on: ``np.float_power(x, 2.0)`` is ``x ** 2``,
and so is ``x * x`` for an x of at most 26 significant bits whose ``x * x``
is a normal double.

Results are compared bit for bit (``struct``-packed doubles), errors by
their message.
"""

import math
import random
import struct
import sys
from decimal import Decimal

import numpy as np
import pytest

from field_energy_oracle import oracle_field_energy
from phasestar import cavity
from phasestar.cavity import (PERIODIC, STANDING, CavitySpec, Mode, ModeAmplitude,
                              enumerate_modes, field_energy)
from phasestar.units import NATURAL, UnitSystem

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               1.3407807929942596e154, 1.3407807929942597e154, 1e154, -1e154,
               1e200, -1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def python_square(x: float) -> float:
    """``x ** 2``, with an overflow read as inf."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def seeded_doubles(seed: int, count: int) -> list:
    """Random bit patterns (every exponent, subnormals, inf and nan among
    them) and random magnitudes from 1e-40 to 1e40 with mixed signs."""
    rng = random.Random(seed)
    patterns = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
                for _ in range(count // 2)]
    return patterns + [magnitude(rng) for _ in range(count - count // 2)]


def magnitude(rng: random.Random) -> float:
    """A double with a random sign, from 1e-40 to 1e40, subnormal or zero."""
    roll = rng.random()
    if roll < 0.05:
        value = rng.randint(0, 1 << 20) * 5e-324
    else:
        value = 10.0 ** rng.uniform(-40, 40)
    return -value if rng.random() < 0.5 else value


def seeded_system(seed: int, count: int = 300, wide: bool = True, value=None):
    """Modes with 1-3 polarizations and their amplitudes, signs mixed.

    ``wide`` draws frequencies and amplitudes from 1e-40 to 1e40, subnormals
    among them; otherwise from -10 to 10, where every addition rounds and a
    different summation order would change the low bits.  A ``value(rng)``
    given draws them in place of both.
    """
    rng = random.Random(seed)
    if value is None:
        value = magnitude if wide else (lambda rng: rng.uniform(-10, 10))
    modes, amplitudes = [], []
    for index in range(count):
        polarizations = rng.randint(1, 3)
        modes.append(Mode((index, rng.randint(-9, 9), 1), abs(value(rng)), polarizations))
        amplitudes.append([ModeAmplitude(value(rng), value(rng))
                           for _ in range(polarizations)])
    return modes, amplitudes


def short_double(rng: random.Random, exponent: int) -> float:
    """A double of random sign with at most 26 significant bits, the top one
    at 2**exponent; at least a quarter of them have exactly 26."""
    width = 26 if rng.random() < 0.25 else rng.randint(1, 26)
    significand = rng.randrange(1 << (width - 1), 1 << width) | 1
    value = math.ldexp(significand, exponent - width + 1)
    return -value if rng.random() < 0.5 else value


def mixed_value(rng: random.Random) -> float:
    """A k/16 from -4 to 4, an integer up to 2**26 or a long double from
    1e-40 to 1e40: the exact-square route and pow in one system."""
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(-64, 64) / 16
    if roll < 0.7:
        return float(rng.randint(-(1 << 26), 1 << 26))
    return magnitude(rng)


def squared_by_pow(values, monkeypatch) -> list:
    """The amplitudes of one mode holding ``values`` as (Q, P) pairs that
    ``field_energy`` squares by ``np.float_power`` rather than by x * x."""
    routed = []
    float_power = np.float_power

    def spy(x, y, *args, **kwargs):
        if np.shape(x) == (len(values),):
            routed.extend(np.asarray(x)[kwargs.get("where", True)].tolist())
        return float_power(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "float_power", spy)
    pairs = [ModeAmplitude(*values[i:i + 2]) for i in range(0, len(values), 2)]
    try:
        field_energy([Mode((1, 1, 1), 0.5, len(pairs))], [pairs])
    except ValueError:
        pass  # an overflowing square leaves the doubles
    return routed


def assert_same_energy(modes, amplitudes, N=2.0, units=NATURAL):
    expected = oracle_field_energy(modes, amplitudes, N, units)
    result = field_energy(modes, amplitudes, N, units)
    for name in ("classical", "zero_point_prefactored", "zero_point_per_oscillator"):
        value = getattr(result, name)
        assert type(value) is float
        assert bits(value) == bits(getattr(expected, name)), name


def assert_same_error(modes, amplitudes, N=2.0, units=NATURAL):
    with pytest.raises(ValueError) as expected:
        oracle_field_energy(modes, amplitudes, N, units)
    with pytest.raises(ValueError) as raised:
        field_energy(modes, amplitudes, N, units)
    assert str(raised.value) == str(expected.value)


class TestSquarePremise:
    """Both the columnar field energy and the radiation sweep square with
    ``np.float_power(x, 2.0)`` and claim bit identity with the scalar ``**``.
    If a platform's numpy breaks that, this must fail loudly."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_float_power_is_python_square(self, seed):
        values = seeded_doubles(seed, 100_000) + EDGE_VALUES
        with np.errstate(all="ignore"):
            squares = np.float_power(np.array(values), 2.0).tolist()
        mismatched = [x for x, square in zip(values, squares)
                      if bits(square) != bits(python_square(x))
                      and not (math.isnan(square) and math.isnan(python_square(x)))]
        assert mismatched == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_short_square_is_exact(self, seed):
        """x * x, ``np.float_power(x, 2.0)`` and ``x ** 2`` agree bit for bit
        for x of at most 26 significant bits whose square is a normal double."""
        rng = random.Random(seed)
        values = [short_double(rng, rng.randint(-511, 511)) for _ in range(100_000)]
        values += [math.ldexp(1.0, -511), -math.ldexp(1.0, -511), math.ldexp(1.0, 511),
                   math.ldexp((1 << 26) - 1, 511 - 25), -math.ldexp((1 << 26) - 1, -511 - 25),
                   float((1 << 26) - 1), 1.0, 0.5, -4.0, 0.0, -0.0]
        values += [short_double(rng, exponent) for exponent in (-511, 511) for _ in range(1000)]
        assert all(sys.float_info.min <= x * x <= sys.float_info.max for x in values if x)
        squares = np.float_power(np.array(values), 2.0).tolist()
        mismatched = [x for x, square in zip(values, squares)
                      if not bits(x * x) == bits(square) == bits(x ** 2)]
        assert mismatched == []

    def test_only_short_normal_squares_skip_pow(self, monkeypatch):
        exact = [0.0, -0.0, 0.5, -1.0, 2.0 ** -511, 2.0 ** 511, 67108863.0,
                 math.ldexp((1 << 26) - 1, 511 - 25), -3.0625, 2.0 ** -100]
        # short values whose square underflows or overflows, short subnormals
        # and short non-finite values, and long ones
        routed = [2.0 ** -512, -1.5 * 2.0 ** -520, 2.0 ** -1040, 2.0 ** 512,
                  -math.ldexp((1 << 26) - 1, 512 - 25), math.nan, math.inf, -math.inf,
                  5e-324, 0.1, 67108865.0, 1.7976931348623157e308]
        assert squared_by_pow(exact, monkeypatch) == []
        assert list(map(bits, squared_by_pow(exact[:1] + routed + exact[1:], monkeypatch))) \
            == list(map(bits, routed))


class TestFieldEnergyMatchesLoop:
    @pytest.mark.parametrize("N", [2.0, 3.0, 0.7, math.inf])
    @pytest.mark.parametrize("wide", [True, False])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seeded_modes(self, seed, wide, N):
        modes, amplitudes = seeded_system(seed, wide=wide)
        assert_same_energy(modes, amplitudes, N)

    @pytest.mark.parametrize("N", [2.0, 0.7, math.inf])
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_short_and_long_values_in_one_call(self, seed, N):
        modes, amplitudes = seeded_system(seed, value=mixed_value)
        assert_same_energy(modes, amplitudes, N)

    def test_short_subnormal_values(self):
        # a short subnormal squares to 0.0 by either route; 5e-324 is long
        modes, amplitudes = seeded_system(44, count=60, value=mixed_value)
        for value in (2.0 ** -1040, -(2.0 ** -1050), 5e-324, 2.0 ** -600, -0.0):
            amplitudes[30][0] = ModeAmplitude(value, -value)
            assert_same_energy(modes, amplitudes)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.0 ** 512])
    @pytest.mark.parametrize("field", ["Q", "P"])
    def test_non_finite_among_short_values(self, value, field):
        modes, amplitudes = seeded_system(45, count=60, value=mixed_value)
        amplitudes[25][0] = amplitudes[25][0]._replace(**{field: value})
        assert_same_error(modes, amplitudes)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_one_square_where_multiply_and_pow_differ(self, seed):
        # The classical energy of one (0.0, P) pair at omega 0.0 is exactly
        # 0.5 * P**2, so no sum absorbs a square that is 1 ulp off, as larger
        # systems can.  P * P and libm's P ** 2 differ on some doubles (164 of
        # 200 000 uniform draws from -10 to 10 with glibc 2.36); P = -9.7151...
        # is one of them there.
        rng = random.Random(seed)
        drawn = [P for P in (rng.uniform(-10, 10) for _ in range(20_000)) if P * P != P ** 2]
        for P in [-9.715141236877889] + drawn[:20]:
            assert_same_energy([Mode((1, 1, 1), 0.0, 1)], [[ModeAmplitude(0.0, P)]])

    def test_benchmark_sized_system(self):
        modes = enumerate_modes(CavitySpec(), math.pi * 33)
        assert len(modes) == 17566
        rng = random.Random(46)
        amplitudes = [[ModeAmplitude(rng.randint(-64, 64) / 16, rng.randint(-64, 64) / 16)
                       for _ in range(mode.polarization_count)] for mode in modes]
        assert_same_energy(modes, amplitudes)
        assert_same_energy(modes, amplitudes, N=3.0)

    @pytest.mark.parametrize("units", [NATURAL, UnitSystem.si()])
    def test_units(self, units):
        modes, amplitudes = seeded_system(21, count=50)
        assert_same_energy(modes, amplitudes, 2.0, units)

    def test_empty(self):
        assert_same_energy([], [])

    def test_zero_frequencies(self):
        # a zero point of -0.0 from the first mode: the loop's sum starts at +0.0
        modes = [Mode((1, 1, 1), -0.0, 1), Mode((1, 1, 2), 0.0, 2)]
        amplitudes = [[ModeAmplitude(-0.0, -0.0)], [ModeAmplitude(0.0, -0.0)] * 2]
        assert_same_energy(modes[:1], amplitudes[:1])
        assert_same_energy(modes, amplitudes)

    @pytest.mark.parametrize("omega,amplitude", [
        (1e200, ModeAmplitude(1.0, 0.0)),      # omega**2 overflows
        (2.0, ModeAmplitude(0.0, 1e200)),      # P**2 overflows
        (2.0, ModeAmplitude(-1e200, 0.0)),     # Q**2 overflows
        (1e154, ModeAmplitude(1e154, 0.0)),    # omega**2 * Q**2 is inf
        (2.0, ModeAmplitude(math.nan, 0.0)),
        (2.0, ModeAmplitude(0.0, -math.inf)),
        (math.inf, ModeAmplitude(0.0, 0.0)),   # inf * 0.0 is nan, the zero point inf
        (math.nan, ModeAmplitude(1.0, 1.0)),
        (1.7976931348623157e308, ModeAmplitude(0.0, 0.0)),  # 3*hbar*w is inf
    ])
    @pytest.mark.parametrize("N", [2.0, math.inf])
    def test_non_finite_cases(self, omega, amplitude, N):
        modes = [Mode((1, 1, 1), 1.0, 1), Mode((1, 1, 2), omega, 3),
                 Mode((1, 2, 2), 3.0, 1)]
        amplitudes = [[ModeAmplitude(0.5, 0.5)], [ModeAmplitude(0.0, 0.0)] * 2 + [amplitude],
                      [ModeAmplitude(0.5, 0.5)]]
        assert_same_error(modes, amplitudes, N)

    @pytest.mark.parametrize("omega", [-1.0, -5e-324, -math.inf])
    def test_negative_frequency_is_rejected_by_its_quantum(self, omega):
        modes = [Mode((1, 1, 1), 1.0, 1), Mode((1, 1, 2), omega, 2),
                 Mode((1, 2, 2), -3.0, 1)]
        amplitudes = [[ModeAmplitude(0.5, 0.5)], [ModeAmplitude(1.0, 2.0)] * 2,
                      [ModeAmplitude(0.5, 0.5)]]
        assert_same_error(modes, amplitudes)
        assert_same_error(modes[1:2], amplitudes[1:2], N=math.inf)
        with pytest.raises(ValueError, match=r"^quantum must be a non-negative real "
                                             rf"number, got {2 * omega!r}$"):
            field_energy(modes, amplitudes)

    def test_sum_overflow(self):
        modes = [Mode((1, 1, n), 1.0, 1) for n in range(1, 5)]
        assert_same_error(modes, [[ModeAmplitude(0.0, 1.2e154)]] * 4)

    def test_zero_point_sum_overflow(self):
        modes = [Mode((1, 1, n), 1e308, 1) for n in range(1, 5)]
        assert_same_error(modes, [[ModeAmplitude(0.0, 0.0)]] * 4, N=0.7)

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_row_length_mismatch(self, rows):
        modes = [Mode((1, 1, 1), 1.0, 2), Mode((1, 1, 2), 2.0, 2)]
        amplitudes = [[ModeAmplitude(0.5, 0.5)] * 2, [ModeAmplitude(0.5, 0.5)] * rows]
        assert_same_error(modes, amplitudes)

    def test_text_polarization_count(self):
        # a count is compared as a value, as the loop compares it, so "1" is no 1
        modes, amplitudes = [Mode((1, 1, 1), 2.0, "1")], [[ModeAmplitude(1.0, 2.0)]]
        assert_same_error(modes, amplitudes)
        with pytest.raises(ValueError, match=r"^mode \(1, 1, 1\) needs 1 polarization "
                                             r"amplitudes, got 1$"):
            field_energy(modes, amplitudes)

    def test_row_length_mismatch_after_a_nan(self):
        modes = [Mode((1, 1, 1), 1.0, 1), Mode((1, 1, 2), 2.0, 2)]
        amplitudes = [[ModeAmplitude(math.nan, 0.0)], [ModeAmplitude(0.5, 0.5)]]
        assert_same_error(modes, amplitudes)

    @pytest.mark.parametrize("field", ["omega", "Q", "P"])
    @pytest.mark.parametrize("mode", [0, 2, 4])
    @pytest.mark.parametrize("huge", [10 ** 400, -(10 ** 400), 2 ** 1024],
                             ids=["10**400", "-10**400", "2**1024"])
    def test_int_too_large_for_a_double(self, field, mode, huge):
        modes = [Mode((1, 1, n), 1.5, 2) for n in range(1, 6)]
        amplitudes = [[ModeAmplitude(0.5, -0.25)] * 2 for _ in modes]
        if field == "omega":
            modes[mode] = modes[mode]._replace(omega=huge)
        else:
            amplitudes[mode][1] = amplitudes[mode][1]._replace(**{field: huge})
        assert_same_error(modes, amplitudes)
        with pytest.raises(ValueError, match=rf"^field energy of mode \(1, 1, {mode + 1}\) "):
            field_energy(modes, amplitudes)

    def test_mode_count_mismatch(self):
        modes, amplitudes = seeded_system(31, count=5)
        assert_same_error(modes, amplitudes[:4])

    def test_first_mode_where_the_sum_stops_being_finite(self):
        # The loop named the mode whose square overflowed (the third), though
        # its sum had stopped being finite at the nan of the second.
        modes = [Mode((1, 1, n), 1.0, 1) for n in range(1, 4)]
        amplitudes = [[ModeAmplitude(0.5, 0.5)], [ModeAmplitude(math.nan, 0.0)],
                      [ModeAmplitude(0.0, 1e200)]]
        with pytest.raises(ValueError, match=r"mode \(1, 1, 2\) .* not a finite"):
            field_energy(modes, amplitudes)


def held_system(spec, omega_max, amplitude, seed=51):
    """An enumeration whose rows are held, and seeded amplitudes for it."""
    modes = enumerate_modes(spec, omega_max)
    assert cavity._held[2] == modes and cavity._held[2] is not modes
    rng = random.Random(seed)
    amplitudes = [[ModeAmplitude(amplitude(rng), amplitude(rng))
                   for _ in range(mode.polarization_count)] for mode in modes]
    return modes, amplitudes


def squared_apart(rng: random.Random, low: int, high: int, factor: int = 1) -> int:
    """A seeded int x in [low, high) for which (x * factor) ** 2 rounded once
    differs from the product of the squared doubles of x and factor."""
    while True:
        x = rng.randrange(low, high)
        if float(x * x * factor * factor) != float(x) ** 2 * float(factor) ** 2:
            return x


def sixteenths(rng: random.Random) -> float:
    return rng.randint(-64, 64) / 16


def uniform(rng: random.Random) -> float:
    return rng.uniform(-10, 10)


class TestHeldColumns:
    """Modes that are a prefix of ``enumerate_modes``' held rows take omega
    and omega**2 from the held columns; every other input reads its rows.
    Both give the loop's result bit for bit, and the same errors."""

    @pytest.fixture(autouse=True)
    def reads(self, monkeypatch):
        """The lengths of the lists ``_overflow_index`` checks: the omegas
        and then the amplitudes when the rows are read, only the amplitudes
        when the held columns serve them."""
        monkeypatch.setattr(cavity, "_held", cavity._NOTHING_HELD)
        checked = []
        overflow_index = cavity._overflow_index

        def spy(values):
            checked.append(len(values))
            return overflow_index(values)

        monkeypatch.setattr(cavity, "_overflow_index", spy)
        return checked

    @staticmethod
    def assert_read(reads, modes, amplitudes, held):
        """The loop's result bit for bit, by the held columns or by reading the rows."""
        reads.clear()
        assert_same_energy(modes, amplitudes)
        total = 2 * sum(map(len, amplitudes))
        assert reads == ([total] if held else [len(modes), total])

    @pytest.mark.parametrize("amplitude", [sixteenths, uniform])
    @pytest.mark.parametrize("polarizations", [1, 2, 3])
    @pytest.mark.parametrize("convention,omega_max", [(STANDING, math.pi * 14),
                                                      (PERIODIC, 2 * math.pi * 6)])
    def test_held_rows_and_their_copies(self, reads, convention, omega_max, polarizations,
                                        amplitude):
        spec = CavitySpec(boundary_convention=convention, polarizations_per_mode=polarizations)
        modes, amplitudes = held_system(spec, omega_max, amplitude)
        for length in (0, 1, len(modes) // 2, len(modes)):
            prefix, rows = modes[:length], amplitudes[:length]
            self.assert_read(reads, prefix, rows, held=True)
            # no modes are a prefix of any held rows
            self.assert_read(reads, [Mode(*mode) for mode in prefix], rows, held=not length)
        # a smaller enumeration of the cavity is a prefix of the held rows
        smaller = enumerate_modes(spec, omega_max / 2)
        self.assert_read(reads, smaller, amplitudes[:len(smaller)], held=True)

    def test_an_enumeration_of_exactly_the_held_bound(self, reads, monkeypatch):
        spec = CavitySpec()
        monkeypatch.setattr(cavity, "_HELD_MODES", len(enumerate_modes(spec, math.pi * 12)))
        monkeypatch.setattr(cavity, "_held", cavity._NOTHING_HELD)
        modes, amplitudes = held_system(spec, math.pi * 12, uniform)
        assert len(modes) == cavity._HELD_MODES
        for length in (0, 1, len(modes) // 2, len(modes)):
            self.assert_read(reads, modes[:length], amplitudes[:length], held=True)
            self.assert_read(reads, [Mode(*mode) for mode in modes[:length]],
                             amplitudes[:length], held=not length)

    def test_rows_of_a_cavity_no_longer_held(self, reads):
        modes, amplitudes = held_system(CavitySpec(), math.pi * 12, uniform)
        # another scale and convention: its omegas differ from the first cavity's
        enumerate_modes(CavitySpec(side_length=0.8, boundary_convention=PERIODIC), 60.0)
        assert len(cavity._held[2]) > len(modes)
        self.assert_read(reads, modes, amplitudes, held=False)

    @pytest.mark.parametrize("change", ["equal copy", "appended", "reversed"])
    def test_rows_that_are_no_prefix_of_the_held_ones(self, reads, change):
        modes, amplitudes = held_system(CavitySpec(), math.pi * 12, uniform)
        if change == "equal copy":
            modes[len(modes) // 3] = Mode(*modes[len(modes) // 3])
        elif change == "appended":
            modes.append(Mode((99, 1, 1), 310.0, 2))
            amplitudes.append([ModeAmplitude(0.5, -1.5)] * 2)
        else:
            modes.reverse()
            amplitudes.reverse()
        self.assert_read(reads, modes, amplitudes, held=False)

    def test_an_equal_row_of_other_types_is_read(self):
        modes, amplitudes = held_system(CavitySpec(), math.pi * 12, uniform)
        mode = modes[3]
        modes[3] = Mode(mode.lattice_triple, Decimal(mode.omega), float(mode.polarization_count))
        assert modes == cavity._held[2]
        # a Decimal frequency is no number to the loop's float sum
        with pytest.raises(ValueError, match=r"^modes must be a sequence of Mode rows .*"
                                             r"'float' and 'decimal\.Decimal'"):
            field_energy(modes, amplitudes)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("field,value", [
        ("Q", lambda rng: squared_apart(rng, 2 ** 53, 2 ** 64)),
        ("P", lambda rng: squared_apart(rng, 2 ** 53, 2 ** 64)),
        # exact as a double, but libm pow rounds its square the other way
        ("P", lambda rng: 1558990310978629)], ids=["Q above 2**53", "P above 2**53", "P below"])
    def test_int_amplitudes(self, reads, where, field, value):
        # the loop squares an int exactly and rounds the square once
        modes, amplitudes = held_system(CavitySpec(), math.pi * 12, sixteenths)
        index = {"first": 0, "middle": len(modes) // 2, "last": len(modes) - 1}[where]
        rng = random.Random(f"int-amplitude-{where}-{field}")
        amplitudes[index][0] = ModeAmplitude(1.0, -1.5)._replace(**{field: value(rng)})
        self.assert_read(reads, modes, amplitudes, held=True)
        self.assert_read(reads, [Mode(*mode) for mode in modes], amplitudes, held=False)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("ints", ["omega", "omega and Q", "omega, Q and P"])
    def test_int_omega(self, reads, where, ints):
        # an int omega is squared exactly, and with an int Q the loop's
        # omega ** 2 * Q ** 2 is one exact product, rounded once
        modes, amplitudes = held_system(CavitySpec(), math.pi * 12, sixteenths)
        modes = [Mode(*mode) for mode in modes]
        index = {"first": 0, "middle": len(modes) // 2, "last": len(modes) - 1}[where]
        rng = random.Random(f"int-omega-{where}-{ints}")
        if ints == "omega":
            omega, amplitude = squared_apart(rng, 2 ** 53, 2 ** 64), ModeAmplitude(1.0, -1.5)
        else:
            omega = rng.randrange(2 ** 20, 2 ** 40)
            amplitude = ModeAmplitude(squared_apart(rng, 2 ** 20, 2 ** 40, omega),
                                      rng.randrange(2 ** 20, 2 ** 40) if "P" in ints else -1.5)
        modes[index] = modes[index]._replace(omega=omega)
        amplitudes[index][0] = amplitude
        self.assert_read(reads, modes, amplitudes, held=False)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("defect", ["short row", "long row", "3-tuple", "text", "nan",
                                        "inf", "huge int"])
    def test_errors_name_the_same_mode(self, where, defect):
        modes, amplitudes = held_system(CavitySpec(), math.pi * 12, sixteenths)
        index = {"first": 0, "middle": len(modes) // 2, "last": len(modes) - 1}[where]
        row = amplitudes[index]
        if defect == "short row":
            del row[1]
        elif defect == "long row":
            row.append(ModeAmplitude(0.25, 0.5))
        elif defect == "3-tuple":
            row[1] = (0.25, 0.5, 0.75)
        else:
            row[1] = row[1]._replace(Q={"text": "1.5", "nan": math.nan, "inf": -math.inf,
                                        "huge int": 10 ** 400}[defect])
        copies = [Mode(*mode) for mode in modes]
        with pytest.raises(ValueError) as on_copies:
            field_energy(copies, amplitudes)
        with pytest.raises(ValueError) as on_held:
            field_energy(modes, amplitudes)
        assert str(on_held.value) == str(on_copies.value)
        if defect not in ("3-tuple", "text"):  # the loop has no message for these
            assert_same_error(modes, amplitudes)
        if defect != "text":
            assert f"{modes[index].lattice_triple}" in str(on_held.value)
