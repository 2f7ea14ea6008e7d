"""Command-line interface.

Subcommands: star, commutator, oscillator, spectrum, modes, checks.
Output is deterministic given the arguments and seed.  Exit status 0 on
success, 1 on domain or parse errors, 2 when an internal check fails.
Tabular output (spectrum, modes, level tables) supports text, CSV
(RFC-4180-style with a header row) and JSON (an array of flat objects);
polynomial results print canonically in text or wrapped in JSON; ``star`` and
``commutator`` share one handler, which selects on the command name.  Every
table is one dict of equal-length columns, the library's own (the checked
columns of ``spectrum_sweep`` and ``enumerate_modes``); ``_emit_columns``
formats each column with one builtin call, ``"{:.<p>g}".format`` or ``str``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from itertools import chain

from .blackbody import SPECTRUM_FIELDS, _sweep_columns, spectral_density_ladder_sum
from .cavity import MODE_FIELDS, CavitySpec, _mode_columns, mode_count_vs_asymptotic
from .checks import run_all_checks
from .expressions import (GRAMMAR_HELP, format_canonical, parse_expression,
                          validate_bindings)
from .oscillator import OscillatorSpec, energy_level, ladder, oscillator_star_energy
from .star import DeformationParameter, poisson_bracket, star_commutator, \
    star_first_order, star_product
from .units import UnitSystem, integer, positive

# Mode tables above this row count are replaced by the asymptotic report.
MODE_LIST_LIMIT = 5000


def _parse_deformation_constant(text: str) -> float:
    try:  # float() reads 'inf' and 'infinity' in any case
        return positive("N", float(text), finite=False)
    except ValueError:
        raise argparse.ArgumentTypeError(f"N must be a positive number or 'infinity', got {text!r}")


def _parse_binding(text: str):
    name, separator, value = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"binding value must be a number, got {text!r}")


# The options several subcommands share, by flag name (``--units`` and so on).
# Each subcommand declares only the ones its handler reads.
_OPTIONS = {
    "units": dict(choices=("natural", "si"), default="natural",
                  help="unit system (default natural: hbar=k=c=1)"),
    "N": dict(type=_parse_deformation_constant, default=2.0, metavar="N", dest="deformation",
              help="deformation constant, a positive number or 'infinity' for "
                   "the exact commutative limit (default 2)"),
    "dims": dict(type=int, default=1, help="phase-space dimension d (default 1)"),
    "param": dict(type=_parse_binding, action="append", default=[], metavar="NAME=VALUE",
                  help="bind an identifier to a number (repeatable)"),
    "format": dict(choices=("text", "csv", "json"), default="text",
                   help="output format (default text)"),
    "precision": dict(type=int, default=12,
                      help="significant digits for numeric output, 3..17 "
                           "(default 12)"),
    "seed": dict(type=int, default=0, help="seed for randomized checks (default 0)"),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser writing help to ``out`` and usage errors to ``err``."""

    def __init__(self, *args, out, err, **kwargs):
        super().__init__(*args, **kwargs)
        self.out, self.err = out, err

    def _print_message(self, message, file=None):
        super()._print_message(message, self.out if file is sys.stdout else self.err)


def _build_parser(out, err) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phasestar", out=out, err=err,
        description="Phase-space star products, the deformed oscillator "
                    "ladder, cavity mode counting and the radiation law "
                    "with zero-point term.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, options, **kwargs):
        sub = subparsers.add_parser(name, out=out, err=err, **kwargs)
        for option in options:
            sub.add_argument(f"--{option}", **_OPTIONS[option])
        return sub

    star = subcommand(
        "star", ("N", "dims", "param", "format"), epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="star product of two expressions")
    star.add_argument("expr1")
    star.add_argument("expr2")
    star.add_argument("--first-order", action="store_true",
                      help="truncate the series at first order in hbar/N")

    commutator = subcommand(
        "commutator", ("N", "dims", "param", "format"), epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="star commutator (or Poisson bracket) of two expressions")
    commutator.add_argument("expr1")
    commutator.add_argument("expr2")
    commutator.add_argument("--poisson", action="store_true",
                            help="print the Poisson bracket instead")

    oscillator = subcommand(
        "oscillator", ("units", "N", "format", "precision"),
        help="deformed oscillator energy and ladder")
    oscillator.add_argument("--omega", type=float, default=1.0,
                            help="angular frequency (default 1)")
    oscillator.add_argument("--levels", type=int, default=3,
                            help="print levels 0..LEVELS (default 3)")

    spectrum = subcommand(
        "spectrum", ("units", "format", "precision"),
        help="spectral energy density sweep")
    spectrum.add_argument("--temperature", "-T", type=float, required=True)
    spectrum.add_argument("--omega-min", type=float, required=True)
    spectrum.add_argument("--omega-max", type=float, required=True)
    spectrum.add_argument("--points", type=int, default=50)
    spectrum.add_argument("--spacing", choices=("log", "linear"), default="log")
    spectrum.add_argument("--oracle", action="store_true",
                          help="add the ladder-sum column and report the "
                               "maximum relative deviation on stderr")
    spectrum.add_argument("--no-zero-point", dest="zero_point",
                          action="store_false",
                          help="drop the hbar*w/2 term (textbook law)")

    modes = subcommand(
        "modes", ("units", "format", "precision"),
        help="cavity mode table and asymptotic count report")
    modes.add_argument("--side-length", "-L", type=float, default=1.0)
    modes.add_argument("--omega-max", type=float, required=True)
    modes.add_argument("--convention", choices=("standing", "periodic"),
                       default="standing")

    subcommand("checks", ("units", "seed"), help="run the internal invariant suite")

    return parser


def _number_formatter(precision: int):
    """``str.format`` bound to ``"{:.<precision>g}"``: a float to ``precision`` digits."""
    if not 3 <= precision <= 17:
        raise ValueError(f"precision must be in [3, 17], got {precision}")
    return f"{{:.{precision}g}}".format


def _emit_columns(columns: dict, fmt: str, render, out) -> None:
    """Write a table given as equal-length columns; the keys are its header.  A
    column whose first value is a float is formatted by ``render``, any other by
    ``str``; JSON reads the floats back, so each number is the rounded value."""
    floats = [bool(column) and isinstance(column[0], float) for column in columns.values()]
    if fmt == "json":
        parsed = [list(map(float, map(render, column))) if is_float else column
                  for column, is_float in zip(columns.values(), floats)]
        json.dump([dict(zip(columns, row)) for row in zip(*parsed)], out, indent=2)
        out.write("\n")
        return
    table = chain([columns], zip(*(map(render if is_float else str, column)
                                   for column, is_float in zip(columns.values(), floats))))
    if fmt == "csv":
        csv.writer(out).writerows(table)
    else:
        widths = [max(len(key), 14) for key in columns]
        out.writelines("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in table)


def _units_from_args(args) -> UnitSystem:
    return UnitSystem.si() if args.units == "si" else UnitSystem.natural()


def _cmd_product(args, out, err) -> int:
    bindings = validate_bindings(dict(args.param))
    f = parse_expression(args.expr1, args.dims, bindings)
    g = parse_expression(args.expr2, args.dims, bindings)
    param = DeformationParameter(N=args.deformation)
    if args.command == "star":
        result = (star_first_order if args.first_order else star_product)(f, g, param)
    else:
        result = poisson_bracket(f, g) if args.poisson else star_commutator(f, g, param)
    text = format_canonical(result)
    if args.format == "json":
        json.dump({"canonical": text}, out)
        out.write("\n")
    else:
        out.write(text + "\n")
    return 0


def _cmd_oscillator(args, out, err) -> int:
    units = _units_from_args(args)
    spec = OscillatorSpec(omega=args.omega, N=args.deformation, units=units)
    integer("--levels", args.levels)
    render = _number_formatter(args.precision)
    energy = format_canonical(oscillator_star_energy(spec))
    ground = energy_level(0, spec)
    levels = ladder(args.levels, spec)
    if args.format == "json":
        json.dump({
            "energy": energy,
            "ground_state": float(render(ground)),
            "levels": [{"n": n, "energy": float(render(value))}
                       for n, value in enumerate(levels)],
        }, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        err.write(f"energy = {energy}\n")
        _emit_columns({"n": range(len(levels)), "energy": levels}, "csv", render, out)
    else:
        out.write(f"energy = {energy}\n")
        out.write(f"ground_state = {render(ground)}\n")
        out.write("levels: " + " ".join(render(value) for value in levels) + "\n")
    return 0


def _cmd_spectrum(args, out, err) -> int:
    units = _units_from_args(args)
    render = _number_formatter(args.precision)
    omega, *densities, x = _sweep_columns(
        args.temperature, args.omega_min, args.omega_max, args.points, args.spacing,
        units, args.zero_point)
    columns = dict(zip(SPECTRUM_FIELDS, (omega, [args.temperature] * len(omega), *densities,
                                         x.tolist())))
    if args.oracle:
        sums = columns["oracle_total_density"] = [spectral_density_ladder_sum(
            w, args.temperature, units, include_zero_point=args.zero_point).total_density
            for w in omega]
        columns["oracle_rel_error"] = [abs(s - t) / (t or 1.0) for s, t in zip(sums, densities[-1])]
    _emit_columns(columns, args.format, render, out)
    if args.oracle:
        err.write(f"max_relative_deviation = {max(columns['oracle_rel_error']):.3e}\n")
    return 0


def _cmd_modes(args, out, err) -> int:
    units = _units_from_args(args)
    render = _number_formatter(args.precision)
    spec = CavitySpec(side_length=args.side_length,
                      boundary_convention=args.convention)
    with warnings.catch_warnings(record=True) as advisories:
        warnings.simplefilter("always")
        report = mode_count_vs_asymptotic(spec, args.omega_max, units)
    for advisory in advisories:
        err.write(f"advisory: {advisory.message}\n")
    lattice_points = report.exact_count // spec.polarizations_per_mode
    if lattice_points <= MODE_LIST_LIMIT:
        # the report's count already bounds the table: list without counting again
        n1, n2, n3, omega = _mode_columns(spec, args.omega_max, units)
        _emit_columns(dict(zip(MODE_FIELDS, (
            n1, n2, n3, omega, [spec.polarizations_per_mode] * len(omega),
            [spec.boundary_convention] * len(omega)))), args.format, render, out)
    else:
        err.write(f"{lattice_points} lattice modes; table suppressed above "
                  f"{MODE_LIST_LIMIT}\n")
    err.write(f"exact_count = {report.exact_count}\n")
    err.write(f"asymptotic_count = {render(report.asymptotic_count)}\n")
    err.write(f"relative_error = {render(report.relative_error)}\n")
    return 0


def _cmd_checks(args, out, err) -> int:
    units = _units_from_args(args)
    results = run_all_checks(seed=args.seed, units=units)
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        out.write(f"{status} {result.name}: {result.detail}\n")
        failed = failed or not result.passed
    return 2 if failed else 0


_COMMANDS = {
    "star": _cmd_product,
    "commutator": _cmd_product,
    "oscillator": _cmd_oscillator,
    "spectrum": _cmd_spectrum,
    "modes": _cmd_modes,
    "checks": _cmd_checks,
}


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _build_parser(out, err).parse_args(argv)
    except SystemExit as exit_request:
        # argparse uses status 2 for usage errors; domain errors are 1 here.
        return 0 if exit_request.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args, out, err)
    except ValueError as error:  # ParseError and ModeCapExceeded among them
        err.write(f"error: {error}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
