"""Command-line sweeps over the chain parameters.

Subcommands: ``dispersion`` (mode energies and gap), ``phase-diagram``
(per-site SNR maps over gamma/field/temperature grids), ``tscan``
(temperature scans of the readout signals at fixed couplings), and
``validate`` (the built-in dense-reference test battery).

Each option of the first three but ``--config`` and ``--resume`` is declared
once, in ``_OPTIONS``, which the flags, the keys of a ``--config`` file
(exactly the command's options, checked as their flags are), the defaults,
the JSON config block and the negative-value fold all read.  ``validate``
takes no options.

Output is a flat table, CSV or JSON, written deterministically: the same
config and package version produce byte-identical files at a fixed BLAS
thread count.  Wall-clock time and progress go to stderr only.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import __version__, correlations, faraday, oracle, thermometry
from .spectrum import ChainSpec, energy_gap, mode_table

OBSERVABLES = ("crb", "varjx", "meanjz")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(argparse.ArgumentTypeError):
    """A refused option; argparse prints the message of one raised for a flag."""


# ---- one converter per kind of value ---------------------------------------------
# each takes a flag's text or a config file's JSON value, so a file value gets
# its flag's checks; JSON true is not a number, though int() and float() take it

def parse_axis(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:steps[:log]' (or a bare scalar) into grid values."""
    parts = str(text).split(":")
    if len(parts) not in (1, 3, 4):
        raise ConfigError(f"axis {text!r}: expected start:stop:steps[:log]")
    if len(parts) == 4 and parts[3] != "log":
        raise ConfigError(f"axis {text!r}: unknown spacing {parts[3]!r}")
    try:
        start = float(parts[0])
        if len(parts) == 1:
            return (start,)
        stop, steps = float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"axis {text!r}: {exc}") from None
    if steps < 1:
        raise ConfigError(f"axis {text!r}: steps must be >= 1")
    if steps == 1:
        if start != stop:
            raise ConfigError(f"axis {text!r}: single-step axis needs start == stop")
        return (start,)
    if len(parts) == 4:
        if start <= 0 or stop <= 0:
            raise ConfigError(f"axis {text!r}: log spacing needs positive endpoints")
        return tuple(float(v) for v in np.geomspace(start, stop, steps))
    return tuple(float(v) for v in np.linspace(start, stop, steps))


def _number(value) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"expected a number, got {value!r}")


def _integer(value) -> int:
    # "6" and 6 pass, as they pass int(); 6.9 does not
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"expected an integer, got {value!r}")


def _axis(value) -> tuple[float, ...]:
    """An axis string, a number, or a JSON list of numbers."""
    if isinstance(value, str):
        return parse_axis(value)
    if not isinstance(value, list):
        return (_number(value),)
    if not value:  # parse_axis never gives one: the sweep would have no points
        raise ConfigError("an axis needs at least one value")
    return tuple(_number(x) for x in value)


_axis.metavar = "START:STOP:STEPS[:log]"


def _observables(value) -> tuple[str, ...]:
    """A comma list of OBSERVABLES or 'none', or a JSON list of names."""
    if isinstance(value, list) and all(isinstance(name, str) for name in value):
        value = ",".join(value)
    if not isinstance(value, str):
        raise ConfigError(f"expected a comma list of names, got {value!r}")
    names = () if value == "none" else [t.strip() for t in value.split(",") if t.strip()]
    for name in names:
        if name not in OBSERVABLES:
            raise ConfigError(
                f"unknown observable {name!r}; choose from {', '.join(OBSERVABLES)} or 'none'")
    return tuple(o for o in OBSERVABLES if o in names)


def _switch(value) -> bool:
    # the flag takes no value; a file gives true or false
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value


def _path(value) -> str:
    # a flag's text is a string already; a file's null or number is no path
    if not isinstance(value, str):
        raise ConfigError(f"expected a path string, got {value!r}")
    return value


def _choice(*words: str) -> Callable[[object], str]:
    def convert(value):
        if value not in words:
            raise ConfigError(f"expected {' or '.join(words)}, got {value!r}")
        return value

    convert.metavar = "{" + ",".join(words) + "}"
    return convert


# ---- the options of the table commands ------------------------------------------

@dataclass(frozen=True)
class _Option:
    """One option: its converter, its help, and its default per command.

    The commands that take it are the keys of defaults; each default goes
    through the converter as a flag's text does.  echo=False keeps it out of
    the JSON metadata, which records what was computed, not where it went.
    """

    convert: Callable[[object], object]
    defaults: dict[str, object]
    help: str
    echo: bool = True


_SWEEPS = ("phase-diagram", "tscan")
_TABLES = ("dispersion",) + _SWEEPS  # the commands that write a table

# the flag of each key is --key with '-' for '_'; the key order is that of
# the config block in the JSON metadata
_OPTIONS = {
    "gamma": _Option(_axis, dict.fromkeys(_TABLES, "1"), "anisotropy axis, or a single value"),
    "field": _Option(_axis, dict.fromkeys(_TABLES, "0"), "field ratio h/J axis"),
    "temp": _Option(_axis, {"phase-diagram": "0.05", "tscan": "0.05:5:40:log"},
                    "temperature axis T/J"),
    "sites": _Option(_integer, dict.fromkeys(_TABLES, 50), "ring length N, even and >= 4"),
    "kappa": _Option(_number, dict.fromkeys(_SWEEPS, 2.0),
                     "light-matter coupling; without --shot-noise it changes no table column"),
    "modulation": _Option(_choice(*correlations.MODULATIONS), dict.fromkeys(_SWEEPS, "uniform"),
                          "probe modulation"),
    "shot_noise": _Option(_switch, dict.fromkeys(_SWEEPS, False),
                          "add the light shot-noise floor to the meanjz readout"),
    "obs": _Option(_observables, dict.fromkeys(_SWEEPS, ",".join(OBSERVABLES)),
                   "SNR columns: a comma list from crb,varjx,meanjz, or 'none'"),
    "format": _Option(_choice("csv", "json"), dict.fromkeys(_TABLES, "csv"), "table format",
                      echo=False),
    "out": _Option(_path, dict.fromkeys(_TABLES, "-"), "output path, '-' for stdout", echo=False),
}


def _options(command: str) -> dict[str, _Option]:
    return {name: opt for name, opt in _OPTIONS.items() if command in opt.defaults}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config_file(path: str, command: str) -> dict:
    """The file's options, keyed as the command's flags are (with '-' or '_')."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    options, out = _options(command), {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in options:
            raise ConfigError(f"config file {path}: {command} has no option {key!r}")
        try:
            out[name] = options[name].convert(value)
        except ConfigError as exc:
            raise ConfigError(f"config file {path}: bad value for {key!r}: {exc}") from None
    return out


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options: the table's defaults, then the --config file, then the flags."""
    values = {name: opt.convert(opt.defaults[args.command])
              for name, opt in _options(args.command).items()}
    if args.config:
        values |= _load_config_file(args.config, args.command)
    cfg = argparse.Namespace(**values | vars(args))  # a flag not given is not in args
    if getattr(cfg, "resume", False) and (cfg.out == "-" or cfg.format != "csv"):
        raise ConfigError("--resume needs --format csv and --out pointing at a file")
    # fail fast on invalid physics parameters, before any file is opened;
    # main reports the ValueError of a bad spec or setup as a config error
    for g in cfg.gamma:
        ChainSpec(gamma=g, field_ratio=0.0, sites=cfg.sites)
    for f in cfg.field:
        ChainSpec(gamma=0.0, field_ratio=f, sites=cfg.sites)
    if cfg.command in _SWEEPS:
        if any(not 0 < t < math.inf for t in cfg.temp):
            raise ConfigError("temperatures must be finite and > 0")
        # the one probe setup of the sweep, which _sweep reads
        cfg.setup = faraday.FaradaySetup(kappa=cfg.kappa, modulation=cfg.modulation,
                                         include_shot_noise=cfg.shot_noise)
        if cfg.shot_noise and not math.isfinite(cfg.setup.shot_noise_floor(cfg.sites)):
            raise ConfigError(f"kappa {cfg.kappa} puts the shot-noise floor N/(2 kappa^2) "
                              f"past the float range at {cfg.sites} sites")
    return cfg


def _note(text: str) -> None:
    # stderr is best-effort: a line that cannot be written there changes
    # neither the table nor the exit code.  With fd 2 closed at start-up
    # sys.stderr is None, and print would send the line to stdout
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(text, file=sys.stderr, flush=True)


def _write_table(cfg: argparse.Namespace, columns: list[str],
                 rows: Iterable[list[float]]) -> None:
    """Write one table to --out or stdout: CSV row by row, JSON as one document.

    A row with a non-finite value is refused.  When rows raises, the JSON
    document is still written, with the rows before the failure.
    """
    try:
        fh = sys.stdout if cfg.out == "-" else open(cfg.out, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc}") from None
    json_rows: list[list[float]] = []
    try:
        if cfg.format == "csv":
            fh.write(",".join(columns) + "\n")
            fh.flush()
        for values in rows:
            if not all(map(math.isfinite, values)):
                raise faraday.NoiseUnderflowError(f"non-finite value in output row {values}")
            if cfg.format == "csv":
                fh.write(",".join(repr(float(v)) for v in values) + "\n")
                fh.flush()
            else:
                json_rows.append([float(v) for v in values])
    finally:
        if cfg.format == "json":
            config = {name: getattr(cfg, name)
                      for name, opt in _options(cfg.command).items() if opt.echo}
            metadata = {"version": __version__, "command": cfg.command, "config": config}
            fh.write(json.dumps({"metadata": metadata, "columns": columns, "rows": json_rows},
                                indent=2) + "\n")
        fh.flush() if fh is sys.stdout else fh.close()


def cmd_dispersion(cfg: argparse.Namespace) -> int:
    def rows():
        for g in cfg.gamma:
            for f in cfg.field:
                spec = ChainSpec(gamma=g, field_ratio=f, sites=cfg.sites)
                mt, gap = mode_table(spec), energy_gap(spec)
                for k, e in zip(mt.momenta, mt.energies):
                    yield [g, f, float(k), float(e), gap]

    # a mode energy past the float range is inf, which _write_table refuses;
    # numpy's overflow warning would only say so first.  The mode table
    # itself does not ignore it: that cost 3 % of a phase-diagram point
    with np.errstate(over="ignore"):
        _write_table(cfg, ["gamma", "field_ratio", "momentum", "energy", "gap"], rows())
    return EXIT_OK


def _snr_values(cfg: argparse.Namespace, point: faraday.ReadoutPoint) -> list[float]:
    # the --obs names crb, varjx, meanjz map onto the point's snr_* members
    return [getattr(point, f"snr_{obs}") for obs in cfg.obs]


def _read_partial_csv(path: str, columns: list[str]) -> dict[tuple, list[float]]:
    done: dict[tuple, list[float]] = {}
    try:
        with open(path) as fh:
            # a last line without its newline is a row an interrupted run left
            # unfinished, even where its cells parse: it is dropped
            lines = fh.read().split("\n")[:-1]
    except OSError:
        return done
    if not lines or lines[0] != ",".join(columns):
        return done  # header mismatch: stale schema, recompute everything
    for line in lines[1:]:
        try:
            values = [float(c) for c in line.split(",")]
        except ValueError:
            continue
        if len(values) == len(columns) and all(math.isfinite(v) for v in values):
            done[tuple(values[:3])] = values
    return done


def _sweep(cfg: argparse.Namespace, columns: list[str],
           row: Callable[[faraday.ReadoutPoint], list[float]]) -> int:
    # one row per grid point, its coordinates then row(point): one ReadoutPoint
    # per point, on the probe setup _resolve built; --resume reuses a partial CSV
    points = [(g, f, t) for g in cfg.gamma for f in cfg.field for t in cfg.temp]

    def compute(g: float, f: float, t: float) -> list[float]:
        spec = ChainSpec(gamma=g, field_ratio=f, sites=cfg.sites)
        return [g, f, t] + row(faraday.ReadoutPoint(thermometry.ensemble(spec, t), cfg.setup))

    cached = _read_partial_csv(cfg.out, columns) if getattr(cfg, "resume", False) else {}
    # the header does not record the sites or the probe options, so the first
    # reused row is recomputed before the file is truncated
    try:
        stale = next((compute(*p) != cached[p] for p in points if p in cached), False)
    except faraday.NoiseUnderflowError:
        stale = True
    if stale:
        raise ConfigError(f"--resume: {cfg.out} holds rows computed with other options")

    def rows():
        for done, p in enumerate(points, start=1):
            yield cached.get(p) or compute(*p)
            _note(f"{cfg.command}: {done}/{len(points)}")

    _write_table(cfg, columns, rows())
    return EXIT_OK


def cmd_phase_diagram(cfg: argparse.Namespace) -> int:
    columns = ["gamma", "field_ratio", "temperature"] + [f"snr_{o}_per_site" for o in cfg.obs]
    return _sweep(cfg, columns, lambda point: [s / cfg.sites for s in _snr_values(cfg, point)])


def cmd_tscan(cfg: argparse.Namespace) -> int:
    columns = (["gamma", "field_ratio", "temperature",
                "var_jx_shot_ratio", "mean_jz_per_sqrt_sites"]
               + [f"snr_{o}" for o in cfg.obs])

    def row(point: faraday.ReadoutPoint) -> list[float]:
        shot = point.var_jx / cfg.sites / faraday.INPUT_QUADRATURE_VARIANCE
        mz = point.mean_jz / math.sqrt(cfg.sites)
        return [shot, mz] + _snr_values(cfg, point)

    return _sweep(cfg, columns, row)


# ---- validate ----------------------------------------------------------------

def _validation_checks():
    # one ReadoutPoint, so one kernel, per ensemble
    setup = faraday.FaradaySetup()

    def point(spec: ChainSpec, t: float) -> faraday.ReadoutPoint:
        return faraday.ReadoutPoint(thermometry.ensemble(spec, t), setup)

    spec = ChainSpec(gamma=0.7, field_ratio=0.4, sites=6)
    temp = 0.37
    sys_m = oracle.build(spec, oracle.MATCHED)
    here = point(spec, temp)
    ens = here.ensemble

    yield ("mode energies match quadratic-form spectrum",
           float(np.max(np.abs(np.sort(ens.modes.energies)
                               - oracle.single_particle_energies(spec)))), 1e-12)
    yield ("matched dense spectrum equals mode subset sums",
           float(np.max(np.abs(sys_m.eigenvalues
                               - oracle.free_spectrum(ens.modes.energies)))), 1e-9)
    got, want = thermometry.qfi(ens), oracle.oracle_qfi(sys_m, temp)
    yield ("qfi matches dense reference", abs(got / want - 1.0), 1e-10)
    pairs = [
        ("var_jx", here.var_jx, oracle.oracle_var_jx(sys_m, temp)),
        ("mean_jz", here.mean_jz, oracle.oracle_mean_jz(sys_m, temp)),
        ("var_jz", here.var_jz, oracle.oracle_var_jz(sys_m, temp)),
        ("fourth_moment_jx", here.fourth_jx, oracle.oracle_fourth_jx(sys_m, temp)),
    ]
    for name, got, want in pairs:
        yield (f"{name} matches dense reference", abs(got / want - 1.0), 1e-8)
    # <J_x^4> where its elimination runs at gamma < 0, and on the gamma = -1,
    # h/J = 0 line, where the pair matrix breaks down at its first pivot and,
    # at 8 sites, Hadamard's bound does not certify the quadruple sum
    # negligible, so every gap class takes orthogonal minors of its own
    # contraction matrix
    for where, line in (("at gamma<0", ChainSpec(gamma=-0.7, field_ratio=0.3, sites=8)),
                        ("on the gamma=-1, h/J=0 line", ChainSpec(gamma=-1.0, field_ratio=0.0,
                                                                  sites=8))):
        got = point(line, temp).fourth_jx
        want = oracle.oracle_fourth_jx(oracle.build(line, oracle.MATCHED), temp)
        yield (f"fourth_moment_jx {where} matches dense reference", abs(got / want - 1.0), 1e-8)
    # the same line at 50 sites, where the bound certifies it and no minor is taken:
    # the x spins are uncorrelated, so <J_x^4> is that of N independent spins
    got = point(ChainSpec(gamma=-1.0, field_ratio=0.0, sites=50), temp).fourth_jx
    yield ("fourth_moment_jx on the gamma=-1, h/J=0 line at N=50 equals 3N^2-2N",
           abs(got / (3 * 50 * 50 - 2 * 50) - 1.0), 1e-12)
    # a polarized XX chain, where Var(J_z) ~ 5e-18 sits far below roundoff of <J_z>^2
    cold = ChainSpec(gamma=0.0, field_ratio=2.0, sites=10)
    got = point(cold, 0.05).var_jz
    want = oracle.oracle_var_jz(oracle.build(cold, oracle.MATCHED), 0.05)
    yield ("cold XX var_jz matches dense reference", abs(got / want - 1.0), 1e-8)
    dev = max(abs(here.kernel.coefficient(b - a) - oracle.string_contraction(sys_m, temp, a, b))
              for a in range(6) for b in range(6))
    yield ("kernel equals dense string contractions", dev, 1e-10)
    flipped = point(ChainSpec(gamma=-spec.gamma, field_ratio=spec.field_ratio, sites=6), temp)
    yield ("y-axis variance equals x-axis variance at -gamma",
           abs(correlations.var_jy(here.kernel) - flipped.var_jx), 1e-10)
    hot = point(spec, math.inf)
    dev = max(abs(hot.var_jx - 6), abs(hot.mean_jz), abs(hot.var_jz - 6),
              abs(hot.fourth_jx - (3 * 36 - 12)))
    yield ("infinite-temperature moments are exact", dev, 1e-12)
    worst = 0.0
    for t in (0.2, 0.5, 1.0):
        p = point(spec, t)
        worst = max(worst, max(p.snr_varjx, p.snr_meanjz) / p.snr_crb - 1.0)
    yield ("readout SNR below Cramer-Rao ceiling", worst, 1e-3)


def cmd_validate() -> int:
    failures = 0
    for name, deviation, bound in _validation_checks():
        ok = deviation <= bound
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}  (deviation {deviation:.3e}, bound {bound:.0e})")
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xythermo",
        description="Thermometry bounds and Faraday-readout scans for the XY ring.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("dispersion", "mode energies and gap over a (gamma, field) grid"),
                           ("phase-diagram", "per-site SNR maps over (gamma, field, T)"),
                           ("tscan", "temperature scans of readout signals and SNRs")):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON file whose keys are this command's options, "
                       "checked as their flags are; flags override")
        # a flag not given leaves no attribute, so _resolve can layer the file under it
        for name, opt in _options(command).items():
            if opt.convert is _switch:
                p.add_argument(_flag(name), action="store_true", default=argparse.SUPPRESS,
                               help=opt.help)
            else:
                p.add_argument(_flag(name), type=opt.convert, default=argparse.SUPPRESS,
                               metavar=getattr(opt.convert, "metavar", None),
                               help=f"{opt.help} (default {opt.defaults[command]})")
        if command == "phase-diagram":
            p.add_argument("--resume", action="store_true",
                           help="reuse finished rows from an interrupted CSV at --out")
    sub.add_parser("validate", help="run the dense-reference validation battery")
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    # '--gamma -1:1:41' would be read by argparse as a flag named '-1:1:41';
    # fold the value of an axis or number flag into '--gamma=-1:1:41' form
    # when it looks numeric
    numeric = {_flag(name) for name, opt in _OPTIONS.items() if opt.convert in (_axis, _number)}
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in numeric and len(nxt) > 1 and nxt[0] == "-"
                and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_join_negative_values(argv))
    start = time.perf_counter()
    try:
        if args.command == "validate":
            code = cmd_validate()
        else:
            args = _resolve(args)  # its --out is what the OSError branch names
            code = {"dispersion": cmd_dispersion, "phase-diagram": cmd_phase_diagram,
                    "tscan": cmd_tscan}[args.command](args)
    except (ConfigError, ValueError) as exc:
        _note(f"error: {exc}")
        return EXIT_CONFIG
    except faraday.NoiseUnderflowError as exc:
        _note(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        # a write of the table failed: stop there, quietly if the reader of
        # stdout closed it.  A failed stdout is pointed at os.devnull, so that
        # the interpreter's flush at exit does not fail on what is still buffered
        out = getattr(args, "out", "-")
        if not isinstance(exc, BrokenPipeError):
            _note(f"error: cannot write {'stdout' if out == '-' else out}: {exc}")
        if out == "-":
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    _note(f"wall time: {time.perf_counter() - start:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
