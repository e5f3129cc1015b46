"""Command-line front end.

Subcommands: generate (station layouts), cdf (per-eta SINR CDF curves),
fit (shift measurement and linear fit), report (full experiment
directory). Data goes to files, progress to stderr. Exit codes:
0 success, 2 configuration error, 3 simulation/runtime error.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import io
from .config import (ExperimentConfig, config_from_mapping, eta_label, load_config_file,
                     parse_float_list)
from .errors import ConfigError, FluidNetError
from .experiment import correlation_for, fit_shift_law, monte_carlo_cdfs, throughput_for
from .fluid import FluidCdf, FluidModel, fluid_curve
from .placement import (DENSITY, ModelKind, generate_hexagonal, generate_poisson,
                        region_for_expected_count)
from .stats import CANONICAL_FIT

# Rows of each cdf_* and fluid_curve_* file: points of its p-grid or r-grid.
TABLE_ROWS = 512
_CDF_P_GRID = np.arange(1, TABLE_ROWS + 1) / (TABLE_ROWS + 1)

DEFAULT_OUTAGE_THRESHOLDS = (-10.0, -5.0, 0.0, 5.0, 10.0)
# Integer settings that a flag of the same name overrides.
_INT_FLAGS = ("seed", "runs", "users", "rings")


def _log(msg):
    print(msg, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fluidnet",
                                     description="SINR distributions for hexagonal, "
                                                 "Poisson and fluid cellular networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--eta", help="comma-separated path-loss exponents")
        for key in _INT_FLAGS:
            p.add_argument(f"--{key}", type=int)

    p_gen = sub.add_parser("generate", help="write a station layout CSV")
    add_shared(p_gen)
    p_gen.add_argument("--model", choices=["poisson", "hex"], default="poisson")

    p_cdf = sub.add_parser("cdf", help="write per-eta SINR CDF curves")
    add_shared(p_cdf)
    p_cdf.add_argument("--model", choices=["poisson", "hex", "fluid"], default="poisson")

    p_fit = sub.add_parser("fit", help="measure CDF shifts and fit the line in eta")
    add_shared(p_fit)

    p_rep = sub.add_parser("report", help="full experiment: CDFs, fit, correlation, outage")
    add_shared(p_rep)
    p_rep.add_argument("--outage-thresholds", dest="outage_thresholds",
                       default=",".join(str(t) for t in DEFAULT_OUTAGE_THRESHOLDS),
                       help="comma-separated dB thresholds for the outage table")
    return parser


def config_from_args(args) -> ExperimentConfig:
    """The config file's settings with the flags' overrides on top, checked once
    as a whole, so that a flag can stand in for a bad value in the file."""
    mapping = load_config_file(args.config) if args.config else {}
    for key in _INT_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if getattr(args, "eta", None) is not None:
        mapping["eta_list"] = args.eta
    return config_from_mapping(mapping)


@contextlib.contextmanager
def _staged(out: Path):
    """Yield a fresh hidden directory on --out's filesystem for the run's files.

    Making it is the only check of --out; a failure is a ConfigError naming --out.
    If the block ends without error, one rename makes the directory a new --out
    (or its highest missing parent), or its files move one by one into an existing
    --out. A failed write or move is a ConfigError naming the file under --out and
    removes every file the run added. The directory goes however the block ends.
    """
    try:
        existed = out.exists()
        top = out if existed else next(p for p in (out, *out.parents) if p.parent.exists())
        # os.mkdir, unlike tempfile.mkdtemp, gives the directories the umask's mode
        staging = (out if existed else top.parent) / f".fluidnet-{os.urandom(6).hex()}"
        files = staging if existed else staging / out.relative_to(top)
        files.mkdir(parents=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    added = []
    try:
        yield files
        if not existed:
            staging.rename(top)
            return
        for name in os.listdir(files):
            if not os.path.lexists(out / name):
                added.append(out / name)
            os.replace(files / name, out / name)
    except OSError as exc:
        for target in added:
            target.unlink(missing_ok=True)
        path = exc.filename2 or (out / Path(exc.filename).name if exc.filename else out)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write(out: Path, files: Path, tables, report_text: str | None = None):
    """Write each table of the stream into files as it comes, then report.txt.

    A table is a (file name, header, columns, comments[, footer comments]) tuple.
    Its columns are checked finite just before its file is opened; a DomainError
    names the file under --out.
    """
    for name, header, columns, *comments in tables:
        columns = [io.check_finite(out / name, column_name, column)
                   for column_name, column in zip(header, columns, strict=True)]
        io.write_csv(files / name, header, columns, *comments)
    if report_text is not None:
        (files / "report.txt").write_text(report_text, newline="\n")


def cmd_generate(args, config, out):
    if args.model == "hex":
        layout = generate_hexagonal(config.rings)
    else:
        layout = generate_poisson(region_for_expected_count(config.expected_stations),
                                  config.seed)
    name, stations = "layout_0.csv", layout.stations
    table = (name, ["bs_id", "x", "y"],
             [np.arange(len(stations)), stations[:, 0], stations[:, 1]],
             {"model": layout.model.value, "seed": config.seed, "density": DENSITY,
              "width": layout.region.width, "height": layout.region.height,
              "digest": config.digest()})
    return ([table], None,
            f"generate: {layout.n_stations} stations ({layout.model.value}) -> {out / name}")


_MONTE_CARLO_KINDS = {"poisson": ModelKind.POISSON, "hex": ModelKind.HEXAGONAL}


def _cdfs(config, model: str) -> dict:
    if model == "fluid":
        return {eta: FluidCdf(FluidModel(eta), config.exclusion) for eta in config.eta_list}
    return monte_carlo_cdfs(config, _MONTE_CARLO_KINDS[model])


def _cdf_tables(config, model: str, cdfs: dict, **extra_comments):
    """One cdf_<model>_eta<eta>.csv table per {eta: cdf} entry: quantiles on a fixed
    p-grid, each computed as the stream reaches it."""
    for eta, cdf in cdfs.items():
        yield (f"cdf_{model}_eta{eta_label(eta)}.csv", ["sinr_db", "probability"],
               [cdf.quantile(_CDF_P_GRID), _CDF_P_GRID],
               {"digest": config.digest(), "model": model, "eta": eta, "seed": config.seed,
                **extra_comments})


def cmd_cdf(args, config, out):
    tables = _cdf_tables(config, args.model, _cdfs(config, args.model))
    return tables, None, f"cdf: {len(config.eta_list)} {args.model} curves -> {out}"


def _fit_shifts(args, config):
    """Poisson CDFs, the shift fit, the stream of fit.csv and of the Poisson and the
    fitted-fluid CDF tables, and the log line of the fit, shared by fit and report.
    The tables that read the Poisson samples are built now."""
    if len(config.eta_list) < 2:
        raise ConfigError(f"{args.command} needs at least 2 eta values")
    poisson_cdfs = _cdfs(config, "poisson")
    shift_fit = fit_shift_law(config, poisson_cdfs)
    coeff = shift_fit.coefficients
    sampled = [("fit.csv", ["eta", "mean_shift_db", "predicted_shift_db", "residual_db"],
                [shift_fit.etas, shift_fit.shifts_db, shift_fit.predicted_db,
                 shift_fit.residuals_db],
                {"digest": config.digest(), "seed": config.seed},
                {"a": coeff.a, "b": coeff.b, "rms": shift_fit.rms_residual_db}),
               *_cdf_tables(config, "poisson", poisson_cdfs)]
    fitted = _cdf_tables(config, "fitted",
                         {eta: FluidCdf(FluidModel(eta), config.exclusion, coeff.shift_db(eta))
                          for eta in config.eta_list},
                         a=coeff.a, b=coeff.b)
    message = (f"{args.command}: a={coeff.a:.4f} b={coeff.b:.4f} "
               f"rms={shift_fit.rms_residual_db:.4f} dB")
    return poisson_cdfs, shift_fit, itertools.chain(sampled, fitted), message


def cmd_fit(args, config, out):
    _, _, tables, message = _fit_shifts(args, config)
    return tables, None, message


def _analytic_report_tables(config):
    """report's tables that read no Poisson sample, each computed as the stream reaches
    it: the fluid and hexagonal CDFs, whose Monte Carlo runs after the Poisson samples
    are gone, throughput.csv and the fluid_curve files."""
    etas, digest = config.eta_list, config.digest()
    yield from _cdf_tables(config, "fluid", _cdfs(config, "fluid"))
    yield from _cdf_tables(config, "hex", _cdfs(config, "hex"))
    yield ("throughput.csv", ["eta", "cell_edge_bps_hz", "cell_average_bps_hz"],
           [etas, *zip(*(throughput_for(config, eta) for eta in etas))], {"digest": digest})
    for eta in etas:
        yield (f"fluid_curve_eta{eta_label(eta)}.csv",
               ["r_over_Rc", "sinr_db", "cdf", "spectral_efficiency"],
               fluid_curve(FluidModel(eta), config.exclusion, TABLE_ROWS),
               {"digest": digest, "eta": eta})


def cmd_report(args, config, out):
    thresholds = np.array(parse_float_list(args.outage_thresholds))
    poisson_cdfs, shift_fit, tables, message = _fit_shifts(args, config)

    etas, digest = config.eta_list, config.digest()
    zetas = [correlation_for(config, eta, poisson_cdfs[eta]) for eta in etas]
    outage = [[cdf.evaluate(thresholds)
               for cdf in (poisson_cdfs[eta], FluidCdf(FluidModel(eta), config.exclusion),
                           FluidCdf(FluidModel(eta), config.exclusion,
                                    CANONICAL_FIT.shift_db(eta)))]
              for eta in etas]
    sampled = [("correlation.csv", ["eta", "zeta"], [etas, zetas], {"digest": digest}),
               ("outage.csv", ["eta", "threshold_db", "poisson", "fluid", "fitted_fluid"],
                [np.repeat(etas, thresholds.size), np.tile(thresholds, len(etas)),
                 *(np.concatenate(column) for column in zip(*outage))], {"digest": digest})]

    coeff = shift_fit.coefficients
    lines = ["fluidnet experiment report", f"digest: {digest}", "", "configuration:",
             *(f"  {key} = {value}" for key, value in config.canonical_items()), "",
             f"shift fit: a={coeff.a!r} b={coeff.b!r} rms={shift_fit.rms_residual_db!r} dB",
             "", "eta  shift_db  zeta(fitted vs poisson)",
             *(f"  {eta:g}  {shift:.4f}  {zeta:.5f}"
               for eta, shift, zeta in zip(shift_fit.etas, shift_fit.shifts_db, zetas))]
    # the Poisson samples go with this frame: the stream reads none of them
    return (itertools.chain(tables, sampled, _analytic_report_tables(config)),
            "\n".join(lines) + "\n", f"{message}\nreport: written to {out}")


# Each command returns its tables, as a stream that computes each one only when _write
# reaches it, the text of report.txt or None, and its log line; main writes, then logs.
_COMMANDS = {"generate": cmd_generate, "cdf": cmd_cdf, "fit": cmd_fit, "report": cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result raises DomainError where it is checked; numpy's
        # overflow warning would only precede it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            config = config_from_args(args)
            out = Path(args.out)
            with _staged(out) as files:
                tables, report_text, message = _COMMANDS[args.command](args, config, out)
                _write(out, files, tables, report_text)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    except (FluidNetError, MemoryError) as exc:
        _log(f"error: {str(exc) or 'out of memory'}")
        return 3
    _log(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
