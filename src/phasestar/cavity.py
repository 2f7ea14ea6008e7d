"""Cavity mode enumeration, counting against the continuum asymptote, and
the mode-sum field energy.

A cubic cavity of side L supports a lattice of radiation modes under either
of two bookkeeping conventions:

* ``standing``: k = pi*n/L with n ranging over strictly positive integer
  triples (one octant), the default;
* ``periodic``: k = 2*pi*n/L with n over all nonzero integer triples.

Each lattice mode carries two polarizations.  Both conventions approach the
same continuum count V w**3 / (3 pi**2 c**3) = (wL/c)**3/(3 pi**2), formed
from the exact ratio wL/c rounded once, so only a count that underflows to 0
is rejected.  Its derivative in w is the density of states w**2/(pi**2 c**3)
entering the radiation law.  The octant convention approaches it from below
with a surface deficit of order (c/(w L)) relative; the full-lattice
convention has no surface term and converges much faster.
``electromagnetic_standing_mode_count`` additionally reports the
conducting-wall budget in which triples with exactly one zero component
contribute a single polarization; its surface term cancels almost entirely.

Every count is inclusive: a triple n is below omega_max exactly when its own
``Mode.omega`` = scale*sqrt(|n|**2) is at most omega_max, i.e. |n|**2 <= m for
one integer shell bound m, found by ``bisect`` on that expression and shared
by census, budget and enumeration.  With T positive triples and P positive
pairs inside m, the octant count is T, the full lattice is 8*T + 12*P +
6*isqrt(m) (octants, quarter planes, half axes) and the electromagnetic
budget is 2*T + 3*P.  T is a sum of exact integer square roots
isqrt(m - a*a - b*b) over numpy rows of (a, b), taken in float64 blocks of a
fixed size: below 2**52 the truncated float root is already exact.  T and
P are cached per shell bound, so the count, the budget and the enumeration's
cap check at one radius share one census pass.  The enumeration expands each
(n1, n2) row into its n3 range from the same roots and orders the triples with
one stable sort on omega.  Its rows depend only on the convention, the scale
and the polarizations, and as no omega tie spans a shell bound, the rows inside
m are the first rows inside any larger bound.  So up to ``_HELD_MODES`` rows
(about 11 MB) of the last cavity's largest enumeration are held, shared and
immutable, with read-only float64 columns of their omega and omega**2 (1 MiB
more at ``_HELD_MODES``), and a later enumeration inside them returns a new
list of their prefix.  A build that finds the cyclic garbage collector on
pauses it for its ``Mode`` rows and turns it back on; one that finds it off
leaves it off, so concurrent enumerations cannot leave it off.  Another
thread that switches the collector during a build may find its setting undone.
The census is O(m) entries, so a lattice radius omega_max/scale above
``MAX_LATTICE_RADIUS`` is a ValueError.  The field energy takes omega and
omega**2 as prefixes of the held columns when its modes are, by identity, the
first held rows and every amplitude row has the held polarization count, and
reads each ``Mode`` otherwise.  It checks the amplitude pair lengths in one set
pass and is a sequential accumulate over numpy columns of the per-mode terms,
squaring an amplitude of at most 26 significant bits by one exact multiply and
the rest, and omega, by libm pow, so it equals its Python loop bit for bit.
"""

from __future__ import annotations

import bisect
import gc
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter, is_, ne
from typing import NamedTuple, Sequence

from .algebra import exact_fraction
from .oscillator import _ground_energy, ground_energy
from .units import NATURAL, UnitSystem, instance, integer, positive

STANDING = "standing"
PERIODIC = "periodic"

# Enumeration refuses to materialize more modes than this.  A listed mode
# holds about 170 bytes, 240 at the peak while the list is built (tracemalloc,
# 98157 modes), so the cap bounds one enumeration near 2.4 GB, and the rows
# held for later enumerations, at most _HELD_MODES, near 11 MB, plus 1 MiB for
# their omega and omega**2 columns.
MODE_COUNT_CAP = 10_000_000
_HELD_MODES = 1 << 16

# Largest lattice radius omega_max/scale counted: one census pass there takes
# about 0.2 s (2-core VM, Python 3.11, numpy 2.4), and every root stays exact.
MAX_LATTICE_RADIUS = 10_000

# (key, shell bound, rows, omega, omega**2) of the largest enumeration of the last
# cavity enumerated, the columns read-only float64 arrays, rebound whole, so no
# reader sees one cavity's key or columns with another's rows.
_NOTHING_HELD = (None, -1, (), None, None)
_held = _NOTHING_HELD

# Column order of mode exports (CSV header and JSON keys, token for token).
MODE_FIELDS = ("n1", "n2", "n3", "omega", "polarizations", "convention")


class ModeCapExceeded(ValueError):
    """Enumeration would exceed the mode cap; reports the required cap."""

    def __init__(self, required_cap: int, cap: int):
        super().__init__(
            f"enumeration needs a cap of at least {required_cap} modes, "
            f"configured cap is {cap}")
        self.required_cap = required_cap
        self.cap = cap


@dataclass(frozen=True)
class CavitySpec:
    """Cubic cavity geometry and mode bookkeeping convention."""

    side_length: float = 1.0
    boundary_convention: str = STANDING
    polarizations_per_mode: int = 2

    def __post_init__(self):
        positive("side_length", self.side_length)
        if self.boundary_convention not in (STANDING, PERIODIC):
            raise ValueError(
                f"boundary_convention must be {STANDING!r} or {PERIODIC!r}, "
                f"got {self.boundary_convention!r}")
        object.__setattr__(self, "polarizations_per_mode",
                           integer("polarizations_per_mode", self.polarizations_per_mode, 1))


class Mode(NamedTuple):
    """One cavity mode: lattice triple, angular frequency, polarizations."""

    lattice_triple: tuple
    omega: float
    polarization_count: int = 2


class ModeAmplitude(NamedTuple):
    """Canonical amplitude pair of one mode-polarization oscillator."""

    Q: float
    P: float


class ModeCountResult(NamedTuple):
    exact_count: int
    asymptotic_count: float
    relative_error: float


def _wavenumber_scale(spec: CavitySpec, units: UnitSystem) -> float:
    instance("units", units, UnitSystem)
    factor = math.pi if spec.boundary_convention == STANDING else 2 * math.pi
    return factor * units.c_light / spec.side_length


def _shell_bound(spec: CavitySpec, omega_max: float, units: UnitSystem) -> int:
    """The largest m, by ``bisect``, with scale * sqrt(m) <= omega_max, as
    ``Mode.omega`` computes it: a triple n is inside exactly when |n|**2 <= m."""
    instance("spec", spec, CavitySpec)
    scale = _wavenumber_scale(spec, units)
    radius = positive("omega_max", omega_max, finite=False) / scale if scale else math.inf
    if not radius <= MAX_LATTICE_RADIUS:
        raise ValueError(f"lattice radius omega_max/scale = {radius:.6g} exceeds "
                         f"the limit of {MAX_LATTICE_RADIUS}")
    return bisect.bisect_right(range(int((radius + 1) ** 2) + 1), omega_max,
                               key=lambda n: scale * math.sqrt(n)) - 1


def _isqrt_rows(values):
    """Exact floor(sqrt(v)) of a numpy array of integers v in [0, 2**52).

    Such v convert to float64 exactly and IEEE 754 rounds the square root
    correctly.  With k = floor(sqrt(v)), sqrt(v) <= sqrt((k+1)**2 - 1) lies
    more than 1/(2(k+1)) >= 2**-27 below k + 1, while half an ulp there is at
    most 2**-28, so the root rounds below k + 1 and truncates to k.  The
    first failure is at v = (2**26 + 1)**2 - 1; ``MAX_LATTICE_RADIUS`` keeps
    every v at most 10**8.
    """
    import numpy as np
    return np.sqrt(values).astype(np.int64)


# Entries of (a, b) per census block, so temporaries do not grow with m.
_BLOCK_ENTRIES = 1 << 16


@lru_cache(maxsize=256)
def _positive_pairs(m: int) -> int:
    """#{(a, b) : a, b >= 1, a*a + b*b <= m}."""
    return sum(math.isqrt(m - a * a) for a in range(1, math.isqrt(m) + 1))


@lru_cache(maxsize=256)
def _positive_triples(m: int) -> int:
    """#{(a, b, c) : a, b, c >= 1, a*a + b*b + c*c <= m}.

    Sums isqrt(m - a*a - b*b) over blocks of rows a, each row b = 1..width
    with the width of the block's first (widest) row; slack below zero is
    clipped to 0, whose root adds nothing.  Every block is computed in
    float64, in place in one buffer allocated per call, and exactly: each
    slack is an integer below 2**52, so its floored root is isqrt (see
    ``_isqrt_rows``), and a block's sum of integers stays below
    2**16 * 10**4.  Cached, so one operation's count, budget and cap check
    share one pass.
    """
    import numpy as np
    reach = math.isqrt(m)
    b_squared = np.arange(1, reach + 1, dtype=float) ** 2
    buffer = np.empty(max(_BLOCK_ENTRIES, reach))
    total = 0
    a = 1
    while a * a < m:
        width = math.isqrt(m - a * a)
        stop = min(a + max(1, _BLOCK_ENTRIES // width), reach + 1)
        rest = m - np.arange(a, stop, dtype=float)[:, None] ** 2
        slack = buffer[:(stop - a) * width].reshape(stop - a, width)
        np.subtract(rest, b_squared[:width], out=slack)
        np.maximum(slack, 0, out=slack)
        np.sqrt(slack, out=slack)
        np.floor(slack, out=slack)
        total += int(slack.sum())
        a = stop
    return total


def _lattice_point_count(spec: CavitySpec, m: int) -> int:
    if spec.boundary_convention == STANDING:
        return _positive_triples(m)
    return 8 * _positive_triples(m) + 12 * _positive_pairs(m) + 6 * math.isqrt(m)


def enumerate_modes(spec: CavitySpec, omega_max: float,
                    units: UnitSystem = NATURAL,
                    cap: int = MODE_COUNT_CAP) -> list:
    """All modes with omega <= omega_max, sorted by (omega, lattice triple).

    The list is deterministic and duplicate-free; degenerate frequency
    shells stay as distinct entries, one per lattice triple.  Raises
    ModeCapExceeded (reporting the required cap) rather than materializing
    more than ``cap`` modes.  The list belongs to the caller, but its
    immutable rows may be shared: up to ``_HELD_MODES`` rows of the cavity's
    largest enumeration are held, with read-only float64 columns of their
    omega and omega**2 (16 bytes a row) for ``field_energy``, and later
    enumerations inside it return a prefix.

    The rows are built with the cyclic garbage collector paused, because a
    ``Mode`` is a tuple subclass that the collector keeps tracking.  A build
    that finds the collector on pauses it and turns it back on, on return or
    error; one that finds it off leaves it off.  Another thread that switches
    the collector during the build may find its setting undone.
    """
    global _held
    cap = integer("cap", cap)
    m = _shell_bound(spec, omega_max, units)
    count = _lattice_point_count(spec, m)
    if count > cap:
        raise ModeCapExceeded(count, cap)
    key = (spec.boundary_convention, _wavenumber_scale(spec, units), spec.polarizations_per_mode)
    held_key, held_m, rows = _held[:3]
    if held_key == key and m <= held_m:
        return rows[:count]
    _held = rows = _NOTHING_HELD  # frees the held rows before the new ones are built
    n1, n2, n3, omega = _mode_columns(spec, omega_max, units)
    # Paused, fresh builds of 511 776 and 1 740 812 rows took 0.20 and 0.72 s, against
    # 0.51-0.60 and 2.2-2.4 s (2-core VM, Python 3.11).  Only a call that turned
    # the collector off turns it back on, so no interleaving leaves it off.
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        # tuple.__new__ builds each Mode in C; Mode._make is a Python call per row
        rows = list(map(tuple.__new__, repeat(Mode), zip(
            zip(n1, n2, n3), omega, repeat(spec.polarizations_per_mode))))
    finally:
        if enabled:
            gc.enable()
    if count <= _HELD_MODES:
        import numpy as np
        omega = np.fromiter(omega, float, count)  # the rows' own omega floats
        with np.errstate(over="ignore"):
            columns = omega, np.float_power(omega, 2.0)
        for column in columns:  # shared by every thread's field_energy: no writes
            column.flags.writeable = False
        _held = (key, m, rows, *columns)
        return rows[:]
    return rows


def _mode_columns(spec: CavitySpec, omega_max: float, units: UnitSystem) -> tuple:
    """The lists n1, n2, n3 and omega of the modes with omega <= omega_max, in
    ``enumerate_modes``' order; the caller bounds their count.

    The triples are generated in ascending (n1, n2, n3) order, so a stable
    sort on omega alone breaks omega ties by the triple, also where distinct
    |n|**2 round to one omega.
    """
    import numpy as np
    m = _shell_bound(spec, omega_max, units)
    standing = spec.boundary_convention == STANDING
    reach = math.isqrt(m)
    axis = np.arange(1 if standing else -reach, reach + 1, dtype=np.int64)
    n1, n2 = (grid.ravel() for grid in np.meshgrid(axis, axis, indexing="ij"))
    slack = m - n1 * n1 - n2 * n2
    inside = slack >= 0
    n1, n2 = n1[inside], n2[inside]
    top = _isqrt_rows(slack[inside])
    # Row (n1, n2) holds n3 = 1..top (standing) or -top..top (periodic).
    low, length = (1, top) if standing else (-top, 2 * top + 1)
    starts = np.cumsum(length) - length
    n3 = np.arange(int(length.sum()), dtype=np.int64) - np.repeat(starts - low, length)
    n1, n2 = np.repeat(n1, length), np.repeat(n2, length)
    omega = _wavenumber_scale(spec, units) * np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    order = np.argsort(omega, kind="stable")
    if not standing:
        order = order[1:]  # the origin, the only omega of 0, sorts first
    return n1[order].tolist(), n2[order].tolist(), n3[order].tolist(), omega[order].tolist()


def mode_count_vs_asymptotic(spec: CavitySpec, omega_max: float,
                             units: UnitSystem = NATURAL) -> ModeCountResult:
    """Exact polarization-weighted lattice count against V w**3/(3 pi**2 c**3).

    The exact side counts every lattice triple of the chosen convention with
    ``polarizations_per_mode`` polarizations.  The relative error decreases
    toward zero as omega_max grows; for the octant convention it falls off
    like the surface-to-volume ratio of the lattice region.  The asymptote is
    (wL/c)**3/(3 pi**2) with wL/c exact; raises ValueError only when it underflows to 0.
    """
    m = _shell_bound(spec, omega_max, units)
    # the shell bound keeps wL/c at most 2*pi*MAX_LATTICE_RADIUS: no cube overflows
    ratio = float(exact_fraction(omega_max) * exact_fraction(spec.side_length)
                  / exact_fraction(units.c_light))
    asymptotic = ratio ** 3 / (3 * math.pi ** 2)
    if not asymptotic > 0:
        raise ValueError(f"asymptotic count {asymptotic!r} is not positive and finite")
    exact = spec.polarizations_per_mode * _lattice_point_count(spec, m)
    if exact < 1000:
        warnings.warn(
            f"only {exact} modes below omega_max; the asymptotic comparison "
            "is meaningful from about a thousand modes up", stacklevel=2)
    relative_error = abs(exact - asymptotic) / asymptotic
    return ModeCountResult(exact, asymptotic, relative_error)


def electromagnetic_standing_mode_count(spec: CavitySpec, omega_max: float,
                                        units: UnitSystem = NATURAL) -> int:
    """Conducting-wall mode budget for the standing convention.

    Interior triples (all components positive) carry two polarizations;
    triples with exactly one zero component support a single field
    polarization and contribute one mode each; triples with two or more
    zeros carry none.  This physical bookkeeping cancels the octant surface
    deficit almost exactly, unlike the uniform two-polarization count.
    """
    m = _shell_bound(spec, omega_max, units)
    if spec.boundary_convention != STANDING:
        raise ValueError("electromagnetic budget applies to the standing convention")
    return 2 * _positive_triples(m) + 3 * _positive_pairs(m)


@dataclass(frozen=True)
class FieldEnergy:
    """Mode-sum field energy, with the zero point under both conventions.

    The quadratic part is (P**2 + w**2 Q**2)/2 summed over mode
    polarizations.  The zero-point sum is reported twice because two
    bookkeeping conventions coexist: ``zero_point_prefactored`` applies the
    global 1/2 of the quadratic form to the per-oscillator shift as well
    (hbar*w/(2N) per term, hbar*w/4 at N=2), while
    ``zero_point_per_oscillator`` counts the full ladder ground energy
    (hbar*w/N per term, hbar*w/2 at N=2), the shift the factored star
    product gives (``oscillator_star_energy``); the other is half of it.
    """

    classical: float
    zero_point_prefactored: float
    zero_point_per_oscillator: float

    @property
    def total_prefactored(self) -> float:
        return self.classical + self.zero_point_prefactored

    @property
    def total_per_oscillator(self) -> float:
        return self.classical + self.zero_point_per_oscillator


def field_energy(modes: Sequence[Mode], amplitudes: Sequence[Sequence[ModeAmplitude]],
                 N: float = 2.0, units: UnitSystem = NATURAL) -> FieldEnergy:
    """Total field energy for given per-mode, per-polarization amplitudes.

    ``amplitudes[m][l]`` is the (Q, P) pair of polarization ``l`` of mode
    ``m``; every mode needs exactly ``polarization_count`` entries.  The
    zero-point parts depend only on the mode frequencies and vanish
    identically in the commutative limit N = inf.  Sums that are not finite
    doubles (an overflow, or a nan or inf input) raise ValueError naming the
    mode after which they stopped being finite, and an int too large for a
    double names its own mode.  A mode whose quantum
    ``polarization_count * hbar * omega`` is below 0 raises ``ground_energy``'s
    ValueError; nan and -0.0 pass, as in the loop.  A frequency or amplitude
    given as text is no number, as in the loop, and raises ValueError.  The
    terms are numpy columns summed by the sequential ``np.add.accumulate``.
    An amplitude x of at most 26 significant bits whose x * x is a normal
    double, or +-0.0, is squared as x * x, the exact square any pow within
    1 ulp returns; other amplitudes and omega by ``np.float_power(x, 2.0)``
    (the libm pow of ``x ** 2``).  So each sum equals the loop bit for bit.
    Modes that are, by identity and not by ``==``, a prefix of the rows
    ``enumerate_modes`` holds, with every amplitude row of the held
    polarization count, take omega and omega**2 from its held columns; other
    modes are read row by row, to the same result and the same errors.
    """
    positive("N", N, finite=False)
    instance("units", units, UnitSystem)
    import numpy as np
    try:
        if len(amplitudes) != len(modes):
            raise ValueError(
                f"amplitudes for {len(amplitudes)} modes supplied, need {len(modes)}")
        omega, omega_squared, rows = _mode_reads(modes, amplitudes)
        polarizations = rows.astype(float)
        total = int(rows.sum())
        flat = list(chain.from_iterable(amplitudes))
        if total and set(map(len, flat)) != {2}:
            index = next(index for index, pair in enumerate(flat) if len(pair) != 2)
            mode = int(np.searchsorted(np.cumsum(rows), index, side="right"))
            raise ValueError(
                f"mode {modes[mode].lattice_triple} needs (Q, P) amplitude pairs, got "
                f"{amplitudes[mode][index - int(rows[:mode].sum())]!r}")
        # Q, P interleaved, in ModeAmplitude's field order
        scalars = list(chain.from_iterable(flat))
        index = _overflow_index(scalars)
        if index is not None:
            raise _not_finite(modes[int(np.searchsorted(np.cumsum(rows), index // 2,
                                                         side="right"))])
        values = np.fromiter(scalars, float, 2 * total)
    except (AttributeError, TypeError) as error:
        raise ValueError("modes must be a sequence of Mode rows and amplitudes one sequence "
                         f"of (Q, P) pairs per mode: {error}") from None
    # freed before the arrays below, so the lists (about 0.85 MB at 17 566 modes)
    # do not raise the call's peak
    del flat, scalars
    # Each running sum starts at 0.0, as the loop's does.
    classical = np.zeros(total + 1)
    zero_point_half = np.zeros(len(modes) + 1)
    with np.errstate(all="ignore"):
        quantum = polarizations * units.hbar * omega
        if (quantum < 0).any():
            # raises the public rule's message for the first negative quantum
            ground_energy(float(quantum[(quantum < 0).argmax()]))
        # x * x is exact for x of at most 26 significant bits (low 27 fraction bits 0)
        # while it is a normal double, and for +-0.0.  It reuses the bit test's
        # buffer: a fresh one cost as much as the test itself at 35k values.
        low = values.view(np.uint64) & ((1 << 27) - 1)
        exact = low == 0
        squares = np.multiply(values, values, out=low.view(float))
        exact &= (squares >= 2.0 ** -1022) & (squares < math.inf) | (values == 0)
        if not exact.all():
            np.float_power(values, 2.0, out=squares, where=~exact)
        omega_squared = np.repeat(omega_squared, rows)
        classical[1:] = 0.5 * (squares[1::2] + omega_squared * squares[0::2])
        # hbar*w/(2N) per polarization is the ground energy at 2N.
        zero_point_half[1:] = _ground_energy(quantum, 2 * N)
        classical = np.add.accumulate(classical)
        zero_point_half = np.add.accumulate(zero_point_half)
    if not (math.isfinite(classical[-1]) and math.isfinite(zero_point_half[-1])):
        # a sum that is not finite stays so; read both at each mode's end
        after = np.isfinite(classical[np.cumsum(rows)]) & np.isfinite(zero_point_half[1:])
        raise _not_finite(modes[int(after.argmin())])
    return FieldEnergy(float(classical[-1]), float(zero_point_half[-1]),
                       2 * float(zero_point_half[-1]))


def _mode_reads(modes, amplitudes) -> tuple:
    """The float64 columns omega and omega**2 of ``modes`` and the intp column
    of their amplitude row lengths, checked as the loop checks them.

    Modes that are, by identity, a prefix of the held rows, with every row
    length the held polarization count, are served from the held columns.
    """
    import numpy as np
    key, _, held, held_omega, held_omega_squared = _held
    if held and len(modes) <= len(held) and all(map(is_, modes, held)):
        lengths = list(map(len, amplitudes))
        if lengths.count(key[2]) == len(lengths):
            return (held_omega[:len(modes)], held_omega_squared[:len(modes)],
                    np.full(len(modes), key[2], np.intp))
    omegas = list(map(attrgetter("omega"), modes))
    index = _overflow_index(omegas)
    if index is not None:
        raise _not_finite(modes[index])
    omega = np.fromiter(omegas, float, len(modes))
    # compared as Python values, as the loop does, so "1" is no count of 1
    counts = list(map(attrgetter("polarization_count"), modes))
    lengths = list(map(len, amplitudes))
    if counts != lengths:
        index = list(map(ne, counts, lengths)).index(True)
        raise ValueError(
            f"mode {modes[index].lattice_triple} needs {counts[index]} "
            f"polarization amplitudes, got {lengths[index]}")
    with np.errstate(all="ignore"):
        return omega, np.float_power(omega, 2.0), np.array(lengths, np.intp)


def _overflow_index(values: list):
    """Adds ``values`` to 0.0 as the loop does, so text raises TypeError
    (``np.fromiter`` parses it); returns None, or the index of the first int
    too large for a double, at which the addition overflows."""
    try:
        sum(values, 0.0)
    except OverflowError:
        for index, value in enumerate(values):
            try:
                0.0 + value
            except OverflowError:
                return index
    return None


def _not_finite(mode: Mode) -> ValueError:
    return ValueError(f"field energy of mode {mode.lattice_triple} at omega = "
                      f"{mode.omega!r} is not a finite double")
