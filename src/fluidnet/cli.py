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
from .experiment import (correlation_for, fit_shift_law, fluid_cdf_for,
                         fluid_model_for, monte_carlo_cdfs, throughput_for)
from .io import (check_finite, write_cdf_csv, write_csv, write_fit_report_csv,
                 write_fluid_curve_csv, write_layout_csv)
from .placement import (ModelKind, generate_hexagonal, generate_poisson,
                        hexagonal_density, region_for_expected_count)
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


def _make_dir(out: Path) -> Path:
    """Create the checked --out directory once there is something to write."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_generate(args) -> int:
    config = config_from_args(args)
    out = _out_dir(args)
    r = config.half_isd
    if args.model == "hex":
        layout = generate_hexagonal(r, config.rings, seed=config.seed)
    else:
        region = region_for_expected_count(r, config.expected_stations)
        layout = generate_poisson(region, hexagonal_density(r), config.seed)
    path = _make_dir(out) / "layout_0.csv"
    write_layout_csv(layout, path, config.digest())
    _log(f"generate: {layout.n_stations} stations ({layout.model.value}) -> {path}")
    return 0


_MONTE_CARLO_KINDS = {"poisson": ModelKind.POISSON, "hex": ModelKind.HEXAGONAL}


def _cdfs(config, model: str) -> dict:
    if model == "fluid":
        return {eta: fluid_cdf_for(config, eta) for eta in config.eta_list}
    return monte_carlo_cdfs(config, _MONTE_CARLO_KINDS[model])


def _write_cdfs(config, out: Path, model: str, cdfs: dict, **extra_comments):
    """One cdf_<model>_eta<eta>.csv per {eta: cdf} entry: quantiles on a fixed p-grid.

    Every table is checked before --out is created, so a failed run writes nothing.
    """
    tables = {}
    for eta, cdf in cdfs.items():
        path = out / f"cdf_{model}_eta{_eta_label(eta)}.csv"
        tables[eta] = path, check_finite(path, "sinr_db", cdf.quantile(_CDF_P_GRID))
    _make_dir(out)
    for eta, (path, sinr_db) in tables.items():
        write_cdf_csv(path, sinr_db, _CDF_P_GRID,
                      {"digest": config.digest(), "model": model, "eta": eta,
                       "seed": config.seed, **extra_comments})
        _log(f"cdf: {model} eta={_eta_label(eta)} -> {path}")


def cmd_cdf(args) -> int:
    config = config_from_args(args)
    out = _out_dir(args)
    _write_cdfs(config, out, args.model, _cdfs(config, args.model))
    return 0


def _fit_shifts(args, config):
    """Poisson CDFs, fit.csv and the fitted-fluid CDFs, shared by fit and report."""
    if len(config.eta_list) < 2:
        raise ConfigError(f"{args.command} needs at least 2 eta values")
    out = _out_dir(args)
    poisson_cdfs = _cdfs(config, "poisson")
    shift_fit = fit_shift_law(config, poisson_cdfs)
    write_fit_report_csv(shift_fit, _make_dir(out) / "fit.csv",
                         {"digest": config.digest(), "seed": config.seed})
    coeff = shift_fit.coefficients
    _write_cdfs(config, out, "poisson", poisson_cdfs)
    _write_cdfs(config, out, "fitted",
                {eta: fluid_cdf_for(config, eta, coeff.shift_db(eta)) for eta in config.eta_list},
                a=coeff.a, b=coeff.b)
    _log(f"{args.command}: a={coeff.a:.4f} b={coeff.b:.4f} "
         f"rms={shift_fit.rms_residual_db:.4f} dB")
    return out, poisson_cdfs, shift_fit


def cmd_fit(args) -> int:
    _fit_shifts(args, config_from_args(args))
    return 0


def cmd_report(args) -> int:
    config = config_from_args(args)
    thresholds = np.array(parse_float_list(args.outage_thresholds))
    out, poisson_cdfs, shift_fit = _fit_shifts(args, config)
    digest = config.digest()
    fluid_cdfs = _cdfs(config, "fluid")
    _write_cdfs(config, out, "fluid", fluid_cdfs)
    _write_cdfs(config, out, "hex", _cdfs(config, "hex"))

    etas = config.eta_list
    zetas = [correlation_for(config, eta, poisson_cdfs[eta]) for eta in etas]
    write_csv(out / "correlation.csv", ["eta", "zeta"], [etas, zetas], {"digest": digest})

    outage = [[cdf.evaluate(thresholds)
               for cdf in (poisson_cdfs[eta], fluid_cdfs[eta],
                           fluid_cdf_for(config, eta, CANONICAL_FIT.shift_db(eta)))]
              for eta in etas]
    write_csv(out / "outage.csv",
              ["eta", "threshold_db", "poisson", "fluid", "fitted_fluid"],
              [np.repeat(etas, thresholds.size), np.tile(thresholds, len(etas)),
               *(np.concatenate(column) for column in zip(*outage))], {"digest": digest})

    write_csv(out / "throughput.csv", ["eta", "cell_edge_bps_hz", "cell_average_bps_hz"],
              [etas, *zip(*(throughput_for(config, eta) for eta in etas))], {"digest": digest})

    for eta in etas:
        write_fluid_curve_csv(fluid_model_for(config, eta),
                              out / f"fluid_curve_eta{_eta_label(eta)}.csv", config.exclusion,
                              comments={"digest": digest, "eta": eta})

    coeff = shift_fit.coefficients
    with open(out / "report.txt", "w", newline="\n") as fh:
        fh.write("fluidnet experiment report\n")
        fh.write(f"digest: {digest}\n\nconfiguration:\n")
        for key, value in config.canonical_items():
            fh.write(f"  {key} = {value}\n")
        fh.write(f"\nshift fit: a={coeff.a!r} b={coeff.b!r} "
                 f"rms={shift_fit.rms_residual_db!r} dB\n")
        fh.write("\neta  shift_db  zeta(fitted vs poisson)\n")
        for eta, shift, zeta in zip(shift_fit.etas, shift_fit.shifts_db, zetas):
            fh.write(f"  {eta:g}  {shift:.4f}  {zeta:.5f}\n")
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
