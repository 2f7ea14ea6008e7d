"""Python-loop field energy, kept as an independent oracle.

This is the mode sum the library computed before it summed numpy columns:
one Python loop over modes and their polarizations, squaring with ``**``
(libm pow) and adding in mode order, with a replay of the same loop to name
the mode at which a sum stopped being finite.  It shares only
``ground_energy`` and ``FieldEnergy`` with ``phasestar.cavity``, and for
every input with at most one defect it must give the same ``FieldEnergy``
bit for bit, or the same ValueError message.
"""

from __future__ import annotations

import math

from phasestar.cavity import FieldEnergy, Mode
from phasestar.oscillator import ground_energy
from phasestar.units import NATURAL, UnitSystem, positive


def oracle_field_energy(modes, amplitudes, N: float = 2.0,
                        units: UnitSystem = NATURAL) -> FieldEnergy:
    positive("N", N, finite=False)
    if len(amplitudes) != len(modes):
        raise ValueError(
            f"amplitudes for {len(amplitudes)} modes supplied, need {len(modes)}")
    classical = 0.0
    zero_point_half = 0.0
    try:
        for mode, rows in zip(modes, amplitudes):
            if len(rows) != mode.polarization_count:
                raise ValueError(
                    f"mode {mode.lattice_triple} needs {mode.polarization_count} "
                    f"polarization amplitudes, got {len(rows)}")
            for amplitude in rows:
                classical += 0.5 * (amplitude.P ** 2 + mode.omega ** 2 * amplitude.Q ** 2)
            # hbar*w/(2N) per polarization is the ground energy at 2N.
            zero_point_half += ground_energy(
                mode.polarization_count * units.hbar * mode.omega, 2 * N)
    except OverflowError:
        raise _not_finite(mode) from None
    if not (math.isfinite(classical) and math.isfinite(zero_point_half)):
        raise _not_finite(_first_nonfinite_mode(modes, amplitudes, N, units))
    return FieldEnergy(classical, zero_point_half, 2 * zero_point_half)


def _not_finite(mode: Mode) -> ValueError:
    return ValueError(f"field energy of mode {mode.lattice_triple} at omega = "
                      f"{mode.omega!r} is not a finite double")


def _first_nonfinite_mode(modes, amplitudes, N, units) -> Mode:
    """The mode after which ``field_energy``'s running sums, replayed in the
    same order, first stop being finite; called only once the totals are not."""
    classical = 0.0
    zero_point_half = 0.0
    for mode, rows in zip(modes, amplitudes):
        for amplitude in rows:
            classical += 0.5 * (amplitude.P ** 2 + mode.omega ** 2 * amplitude.Q ** 2)
        zero_point_half += ground_energy(
            mode.polarization_count * units.hbar * mode.omega, 2 * N)
        if not (math.isfinite(classical) and math.isfinite(zero_point_half)):
            return mode
