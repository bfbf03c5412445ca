"""Command-line sweeps over the chain parameters.

Subcommands: ``dispersion`` (mode energies and gap), ``phase-diagram``
(per-site SNR maps over gamma/field/temperature grids), ``tscan``
(temperature scans of the readout signals at fixed couplings), and
``validate`` (the built-in dense-reference test battery).

Output is a flat table, CSV or JSON, written deterministically: the same
config and package version produce byte-identical files at a fixed BLAS
thread count.  Wall-clock time and progress go to stderr only.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__, correlations, faraday, oracle, thermometry
from .spectrum import ChainSpec, energy_gap, mode_table

OBSERVABLES = ("crb", "varjx", "meanjz")

_TEMP_DEFAULTS = {"phase-diagram": "0.05", "tscan": "0.05:5:40:log"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def parse_axis(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:steps[:log]' (or a bare scalar) into grid values."""
    parts = str(text).split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) not in (3, 4):
        raise ConfigError(f"axis {text!r}: expected start:stop:steps[:log]")
    if len(parts) == 4 and parts[3] != "log":
        raise ConfigError(f"axis {text!r}: unknown spacing {parts[3]!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
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


def _axis_type(text):
    try:
        return parse_axis(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _obs_type(text):
    if text == "none":
        return ()
    names = tuple(t.strip() for t in str(text).split(",") if t.strip())
    for name in names:
        if name not in OBSERVABLES:
            raise argparse.ArgumentTypeError(
                f"unknown observable {name!r}; choose from {', '.join(OBSERVABLES)} or 'none'")
    return tuple(o for o in OBSERVABLES if o in names)


@dataclass
class SweepConfig:
    command: str
    gamma: tuple[float, ...] = (1.0,)
    field: tuple[float, ...] = (0.0,)
    temp: tuple[float, ...] = ()
    sites: int = 50
    kappa: float = 2.0
    modulation: str = "uniform"
    shot_noise: bool = False
    obs: tuple[str, ...] = OBSERVABLES
    format: str = "csv"
    out: str = "-"
    resume: bool = False

    def echo(self) -> dict:
        # the config block embedded in JSON output: the options the command
        # takes, without output routing
        if self.command not in _TEMP_DEFAULTS:
            return {"gamma": list(self.gamma), "field": list(self.field), "sites": self.sites}
        return {
            "gamma": list(self.gamma),
            "field": list(self.field),
            "temp": list(self.temp),
            "sites": self.sites,
            "kappa": self.kappa,
            "modulation": self.modulation,
            "shot_noise": self.shot_noise,
            "obs": list(self.obs),
        }


def _config_float(value) -> float:
    # the flags parse text with float(), which refuses "true"; JSON true would pass
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _config_axis(value) -> tuple[float, ...]:
    """An axis from a config file: an axis string, a number or a list of numbers."""
    if isinstance(value, str):
        return parse_axis(value)
    if isinstance(value, (int, float)):
        return (_config_float(value),)
    axis = tuple(_config_float(x) for x in value)
    if not axis:  # parse_axis never gives one: the sweep would have no points
        raise ValueError("an axis needs at least one value")
    return axis


def _config_int(value) -> int:
    # the flag parses text with int(), so "6" passes and 6.9 or true does not
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _config_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _config_obs(value) -> tuple[str, ...]:
    """--obs from a config file: the flag's comma string, or a list of names."""
    return _obs_type(value if isinstance(value, str) else ",".join(value))


_CONFIG_KEYS = {
    "gamma": _config_axis,
    "field": _config_axis,
    "temp": _config_axis,
    "sites": _config_int,
    "kappa": _config_float,
    "modulation": str,
    "shot_noise": _config_bool,
    "obs": _config_obs,
    "format": str,
    "out": str,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    out = {}
    for key, value in raw.items():
        norm = key.replace("-", "_")
        if norm not in _CONFIG_KEYS:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
        try:
            out[norm] = _CONFIG_KEYS[norm](value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config file {path}: bad value for {key!r}: {exc}") from None
    return out


def _resolve(args: argparse.Namespace) -> SweepConfig:
    cfg = SweepConfig(command=args.command)
    if args.command in _TEMP_DEFAULTS:
        cfg.temp = parse_axis(_TEMP_DEFAULTS[args.command])
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_cfg.items():
        setattr(cfg, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    cfg.resume = bool(getattr(args, "resume", False))
    if cfg.resume and (cfg.out == "-" or cfg.format != "csv"):
        raise ConfigError("--resume needs --format csv and --out pointing at a file")
    # fail fast on invalid physics parameters, before any file is opened;
    # main reports the ValueError of a bad spec or setup as a config error
    for g in cfg.gamma:
        ChainSpec(gamma=g, field_ratio=0.0, sites=cfg.sites)
    for f in cfg.field:
        ChainSpec(gamma=0.0, field_ratio=f, sites=cfg.sites)
    if any(not t > 0 for t in cfg.temp):
        raise ConfigError("temperatures must be > 0")
    if cfg.command in ("phase-diagram", "tscan"):
        faraday.FaradaySetup(kappa=cfg.kappa, modulation=cfg.modulation,
                             include_shot_noise=cfg.shot_noise)
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


class _Emitter:
    """Streams one table to a file or stdout; CSV row-by-row, JSON at close."""

    def __init__(self, cfg: SweepConfig, columns: list[str]):
        self.cfg = cfg
        self.columns = columns
        self.rows: list[list[float]] = []
        try:
            self.fh = sys.stdout if cfg.out == "-" else open(cfg.out, "w")
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from None
        if cfg.format == "csv":
            self.fh.write(",".join(columns) + "\n")
            self.fh.flush()

    def row(self, values: list[float]) -> None:
        for v in values:
            if not math.isfinite(v):
                raise faraday.NoiseUnderflowError(f"non-finite value in output row {values}")
        if self.cfg.format == "csv":
            self.fh.write(",".join(_fmt(v) for v in values) + "\n")
            self.fh.flush()
        else:
            self.rows.append([float(v) for v in values])

    def close(self) -> None:
        if self.cfg.format == "json":
            doc = {
                "metadata": {
                    "version": __version__,
                    "command": self.cfg.command,
                    "config": self.cfg.echo(),
                },
                "columns": self.columns,
                "rows": self.rows,
            }
            json.dump(doc, self.fh, indent=2)
            self.fh.write("\n")
        if self.fh is not sys.stdout:
            self.fh.close()
        else:
            self.fh.flush()


def cmd_dispersion(cfg: SweepConfig) -> int:
    columns = ["gamma", "field_ratio", "momentum", "energy", "gap"]
    emitter = _Emitter(cfg, columns)
    try:
        for g in cfg.gamma:
            for f in cfg.field:
                spec = ChainSpec(gamma=g, field_ratio=f, sites=cfg.sites)
                mt = mode_table(spec)
                gap = energy_gap(spec)
                for k, e in zip(mt.momenta, mt.energies):
                    emitter.row([g, f, float(k), float(e), gap])
    finally:
        emitter.close()
    return EXIT_OK


def _snr_values(cfg: SweepConfig, point: faraday.ReadoutPoint) -> list[float]:
    # the --obs names crb, varjx, meanjz map onto the point's snr_* members
    return [getattr(point, f"snr_{obs}") for obs in cfg.obs]


def _read_partial_csv(path: str, columns: list[str]) -> dict[tuple, list[float]]:
    done: dict[tuple, list[float]] = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return done
    if not lines or lines[0] != ",".join(columns):
        return done  # header mismatch: stale schema, recompute everything
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            continue  # truncated final row from an interrupted run
        try:
            values = [float(c) for c in cells]
        except ValueError:
            continue
        if all(math.isfinite(v) for v in values):
            done[tuple(values[:3])] = values
    return done


def _sweep(cfg: SweepConfig, columns: list[str],
           row: Callable[[faraday.ReadoutPoint], list[float]]) -> int:
    # one row per grid point, its coordinates then row(point): one probe setup
    # per sweep, one ReadoutPoint per point; --resume reuses a partial CSV
    points = [(g, f, t) for g in cfg.gamma for f in cfg.field for t in cfg.temp]
    total = len(points)
    setup = faraday.FaradaySetup(kappa=cfg.kappa, modulation=cfg.modulation,
                                 include_shot_noise=cfg.shot_noise)
    cached = _read_partial_csv(cfg.out, columns) if cfg.resume else {}
    emitter = _Emitter(cfg, columns)
    try:
        for done, (g, f, t) in enumerate(points, start=1):
            values = cached.get((g, f, t))
            if values is None:
                spec = ChainSpec(gamma=g, field_ratio=f, sites=cfg.sites)
                values = [g, f, t] + row(faraday.ReadoutPoint(thermometry.ensemble(spec, t),
                                                              setup))
            emitter.row(values)
            print(f"{cfg.command}: {done}/{total}", file=sys.stderr, flush=True)
    finally:
        emitter.close()
    return EXIT_OK


def cmd_phase_diagram(cfg: SweepConfig) -> int:
    columns = ["gamma", "field_ratio", "temperature"] + [f"snr_{o}_per_site" for o in cfg.obs]
    return _sweep(cfg, columns, lambda point: [s / cfg.sites for s in _snr_values(cfg, point)])


def cmd_tscan(cfg: SweepConfig) -> int:
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
           float(np.max(np.abs(sys_m.eigenvalues - oracle.free_spectrum(spec)))), 1e-9)
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


def cmd_validate(cfg: SweepConfig) -> int:
    failures = 0
    for name, deviation, bound in _validation_checks():
        ok = deviation <= bound
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}  (deviation {deviation:.3e}, bound {bound:.0e})")
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xythermo",
        description="Thermometry bounds and Faraday-readout scans for the XY ring.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, temp_default=None):
        p.add_argument("--config", help="JSON file with any of the sweep keys; flags override")
        p.add_argument("--gamma", type=_axis_type, metavar="START:STOP:STEPS[:log]",
                       help="anisotropy axis (or a single value)")
        p.add_argument("--field", type=_axis_type, metavar="START:STOP:STEPS[:log]",
                       help="field ratio h/J axis")
        p.add_argument("--sites", type=int, help="ring length N (even, >= 4; default 50)")
        p.add_argument("--out", help="output path, '-' for stdout (default)")
        p.add_argument("--format", choices=("csv", "json"), help="table format (default csv)")
        if temp_default is not None:
            p.add_argument("--temp", type=_axis_type, metavar="START:STOP:STEPS[:log]",
                           help=f"temperature axis T/J (default {temp_default})")
            p.add_argument("--kappa", type=float, help="light-matter coupling (default 2.0)")
            p.add_argument("--obs", type=_obs_type,
                           help="comma list from crb,varjx,meanjz, or 'none' (default all)")
            p.add_argument("--modulation", choices=correlations.MODULATIONS,
                           help="probe modulation (default uniform)")
            p.add_argument("--shot-noise", dest="shot_noise", action="store_const", const=True,
                           help="add the light shot-noise floor to the meanjz readout")

    p = sub.add_parser("dispersion", help="mode energies and gap over a (gamma, field) grid")
    add_common(p)
    p = sub.add_parser("phase-diagram", help="per-site SNR maps over (gamma, field, T)")
    add_common(p, temp_default="0.05")
    p.add_argument("--resume", action="store_true",
                   help="reuse finished rows from an interrupted CSV at --out")
    p = sub.add_parser("tscan", help="temperature scans of readout signals and SNRs")
    add_common(p, temp_default="0.05:5:40:log")
    p = sub.add_parser("validate", help="run the dense-reference validation battery")
    p.add_argument("--config", help=argparse.SUPPRESS)
    return parser


_NUMERIC_FLAGS = {"--gamma", "--field", "--temp", "--kappa"}


def _join_negative_values(argv: list[str]) -> list[str]:
    # '--gamma -1:1:41' would be read by argparse as a flag named '-1:1:41';
    # fold the value into '--gamma=-1:1:41' form when it looks numeric
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in _NUMERIC_FLAGS and len(nxt) > 1 and nxt[0] == "-"
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
        cfg = _resolve(args)
        handler = {
            "dispersion": cmd_dispersion,
            "phase-diagram": cmd_phase_diagram,
            "tscan": cmd_tscan,
            "validate": cmd_validate,
        }[cfg.command]
        code = handler(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except faraday.NoiseUnderflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wall time: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
