"""Python-loop mode enumeration, kept as an independent oracle.

This is the enumeration the library used before it built its triples with
numpy rows: one Python triple at a time over the whole axis cube, filtered to
the shell, then one sort on the (omega, lattice triple) key.  It shares the
shell bound and the wavenumber scale with ``phasestar.cavity``, and must give
the same list of modes, under ``==``, for every input.
"""

from __future__ import annotations

import math

from phasestar.cavity import STANDING, CavitySpec, Mode, _shell_bound, _wavenumber_scale
from phasestar.units import NATURAL, UnitSystem


def oracle_enumerate_modes(spec: CavitySpec, omega_max: float,
                           units: UnitSystem = NATURAL) -> list:
    m = _shell_bound(spec, omega_max, units)
    scale = _wavenumber_scale(spec, units)
    reach = math.isqrt(m)
    axis = range(1 if spec.boundary_convention == STANDING else -reach, reach + 1)
    modes = [
        Mode((n1, n2, n3), scale * math.sqrt(n1 * n1 + n2 * n2 + n3 * n3),
             spec.polarizations_per_mode)
        for n1 in axis for n2 in axis for n3 in axis
        if 0 < n1 * n1 + n2 * n2 + n3 * n3 <= m
    ]
    modes.sort(key=lambda mode: (mode.omega, mode.lattice_triple))
    return modes
