"""Command-line front end.

Subcommands: generate (station layouts), cdf (per-eta SINR CDF curves),
fit (shift measurement and linear fit), report (full experiment
directory). Data goes to files, progress to stderr. Exit codes:
0 success, 2 configuration error, 3 simulation/runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_from_mapping, load_config_file, parse_float_list
from .errors import ConfigError, FluidNetError
from .experiment import correlation_for, fit_shift_law, monte_carlo_cdfs, throughput_for
from .fluid import FluidCdf, FluidModel
from .io import (cdf_table, checked_table, fit_report_table, fluid_curve_table, layout_table,
                 write_tables)
from .placement import (ModelKind, generate_hexagonal, generate_poisson,
                        region_for_expected_count)
from .stats import CANONICAL_FIT

CDF_ROWS = 512
_CDF_P_GRID = np.arange(1, CDF_ROWS + 1) / (CDF_ROWS + 1)

DEFAULT_OUTAGE_THRESHOLDS = (-10.0, -5.0, 0.0, 5.0, 10.0)


def _log(msg):
    print(msg, file=sys.stderr)


def _eta_label(eta: float) -> str:
    return f"{round(float(eta), 4):g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fluidnet",
                                     description="SINR distributions for hexagonal, "
                                                 "Poisson and fluid cellular networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--eta", help="comma-separated path-loss exponents")
        p.add_argument("--runs", type=int)
        p.add_argument("--users", type=int)
        p.add_argument("--rings", type=int)

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
    mapping = load_config_file(args.config) if args.config else {}
    cfg = config_from_mapping(mapping)
    overrides = {}
    for key in ("seed", "runs", "users", "rings"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "eta", None) is not None:
        overrides["eta_list"] = parse_float_list(args.eta)
    config = config_from_mapping(overrides, cfg)
    labels = [_eta_label(eta) for eta in config.eta_list]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"eta values must differ in file label, got {','.join(labels)}")
    return config


def _out_dir(args) -> Path:
    """The --out path, checked before any work: it, or else its nearest
    existing parent, must be a directory. Nothing is created yet."""
    out = Path(args.out)
    try:
        existing = next(p for p in (out, *out.parents) if p.exists())
        is_dir = existing.is_dir()
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if not is_dir:
        raise ConfigError(f"cannot create output directory {out}: {existing} is not a directory")
    return out


def _write(out: Path, tables, report_text: str | None = None):
    """Create the checked --out directory and write the checked tables and report.txt.
    Commands compute everything first, so a run that fails writes nothing."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    write_tables(tables)
    if report_text is not None:
        with open(out / "report.txt", "w", newline="\n") as fh:
            fh.write(report_text)


def cmd_generate(args) -> int:
    config = config_from_args(args)
    out = _out_dir(args)
    if args.model == "hex":
        layout = generate_hexagonal(config.rings)
    else:
        layout = generate_poisson(region_for_expected_count(config.expected_stations),
                                  config.seed)
    path = out / "layout_0.csv"
    _write(out, [layout_table(layout, path, config.seed, config.digest())])
    _log(f"generate: {layout.n_stations} stations ({layout.model.value}) -> {path}")
    return 0


_MONTE_CARLO_KINDS = {"poisson": ModelKind.POISSON, "hex": ModelKind.HEXAGONAL}


def _cdfs(config, model: str) -> dict:
    if model == "fluid":
        return {eta: FluidCdf(FluidModel(eta), config.exclusion) for eta in config.eta_list}
    return monte_carlo_cdfs(config, _MONTE_CARLO_KINDS[model])


def _cdf_tables(config, out: Path, model: str, cdfs: dict, **extra_comments) -> list:
    """One cdf_<model>_eta<eta>.csv table per {eta: cdf} entry: quantiles on a fixed p-grid."""
    return [cdf_table(out / f"cdf_{model}_eta{_eta_label(eta)}.csv",
                      cdf.quantile(_CDF_P_GRID), _CDF_P_GRID,
                      {"digest": config.digest(), "model": model, "eta": eta,
                       "seed": config.seed, **extra_comments})
            for eta, cdf in cdfs.items()]


def cmd_cdf(args) -> int:
    config = config_from_args(args)
    out = _out_dir(args)
    tables = _cdf_tables(config, out, args.model, _cdfs(config, args.model))
    _write(out, tables)
    _log(f"cdf: {len(tables)} {args.model} curves -> {out}")
    return 0


def _fit_shifts(args, config):
    """Poisson CDFs, the shift fit, and the tables of fit.csv, the Poisson
    and the fitted-fluid CDFs, shared by fit and report."""
    if len(config.eta_list) < 2:
        raise ConfigError(f"{args.command} needs at least 2 eta values")
    out = _out_dir(args)
    poisson_cdfs = _cdfs(config, "poisson")
    shift_fit = fit_shift_law(config, poisson_cdfs)
    coeff = shift_fit.coefficients
    tables = [fit_report_table(shift_fit, out / "fit.csv",
                               {"digest": config.digest(), "seed": config.seed}),
              *_cdf_tables(config, out, "poisson", poisson_cdfs),
              *_cdf_tables(config, out, "fitted",
                           {eta: FluidCdf(FluidModel(eta), config.exclusion, coeff.shift_db(eta))
                            for eta in config.eta_list},
                           a=coeff.a, b=coeff.b)]
    return out, poisson_cdfs, shift_fit, tables


def _log_fit(args, shift_fit):
    coeff = shift_fit.coefficients
    _log(f"{args.command}: a={coeff.a:.4f} b={coeff.b:.4f} "
         f"rms={shift_fit.rms_residual_db:.4f} dB")


def cmd_fit(args) -> int:
    out, _, shift_fit, tables = _fit_shifts(args, config_from_args(args))
    _write(out, tables)
    _log_fit(args, shift_fit)
    return 0


def cmd_report(args) -> int:
    config = config_from_args(args)
    thresholds = np.array(parse_float_list(args.outage_thresholds))
    out, poisson_cdfs, shift_fit, tables = _fit_shifts(args, config)
    digest = config.digest()
    fluid_cdfs = _cdfs(config, "fluid")
    tables += _cdf_tables(config, out, "fluid", fluid_cdfs)
    tables += _cdf_tables(config, out, "hex", _cdfs(config, "hex"))

    etas = config.eta_list
    zetas = [correlation_for(config, eta, poisson_cdfs[eta]) for eta in etas]
    tables.append(checked_table(out / "correlation.csv", ["eta", "zeta"], [etas, zetas],
                                {"digest": digest}))

    outage = [[cdf.evaluate(thresholds)
               for cdf in (poisson_cdfs[eta], fluid_cdfs[eta],
                           FluidCdf(FluidModel(eta), config.exclusion,
                                    CANONICAL_FIT.shift_db(eta)))]
              for eta in etas]
    tables.append(checked_table(
        out / "outage.csv", ["eta", "threshold_db", "poisson", "fluid", "fitted_fluid"],
        [np.repeat(etas, thresholds.size), np.tile(thresholds, len(etas)),
         *(np.concatenate(column) for column in zip(*outage))], {"digest": digest}))

    tables.append(checked_table(
        out / "throughput.csv", ["eta", "cell_edge_bps_hz", "cell_average_bps_hz"],
        [etas, *zip(*(throughput_for(config, eta) for eta in etas))], {"digest": digest}))

    tables += [fluid_curve_table(FluidModel(eta), out / f"fluid_curve_eta{_eta_label(eta)}.csv",
                                 config.exclusion, comments={"digest": digest, "eta": eta})
               for eta in etas]

    coeff = shift_fit.coefficients
    lines = ["fluidnet experiment report", f"digest: {digest}", "", "configuration:",
             *(f"  {key} = {value}" for key, value in config.canonical_items()), "",
             f"shift fit: a={coeff.a!r} b={coeff.b!r} rms={shift_fit.rms_residual_db!r} dB",
             "", "eta  shift_db  zeta(fitted vs poisson)",
             *(f"  {eta:g}  {shift:.4f}  {zeta:.5f}"
               for eta, shift, zeta in zip(shift_fit.etas, shift_fit.shifts_db, zetas))]
    _write(out, tables, "\n".join(lines) + "\n")
    _log_fit(args, shift_fit)
    _log(f"report: written to {out}")
    return 0


_COMMANDS = {"generate": cmd_generate, "cdf": cmd_cdf, "fit": cmd_fit, "report": cmd_report}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result raises DomainError where it is checked; numpy's
        # overflow warning would only precede it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        _log(f"error: {exc}")
        return 2
    except (FluidNetError, MemoryError) as exc:
        _log(f"error: {str(exc) or 'out of memory'}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
