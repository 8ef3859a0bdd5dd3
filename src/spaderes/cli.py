"""Batch front end: curve tabulation, resolution summaries, and simulations.

Subcommands: tau-curve, fi-curve, d-half, simulate, qfi.  Output is CSV (one
'#'-prefixed header line carrying the resolved config as JSON, then 12
significant digits per value) or JSON with full-precision floats.  Axes are
dimensionless by default, d in units of sigma and information as
FI sigma^2 / n_s; --absolute switches both the d grid interpretation and the
output columns to absolute units.

Options may come from a key=value config file via --config; flags given on
the command line win.  Exit codes: 0 success, 2 usage, 3 numeric failure,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .counting import POISSON, STATISTICS, NoiseModel, SourceScene
from .direct_imaging import fi_direct, qfi, qfi_numeric
from .errors import (
    BudgetError,
    NumericError,
    SpaderesError,
    ValidationError,
)
from .montecarlo import MEASUREMENTS, Experiment, run_crb_experiment
from .overlap import tau1_closed, tau1_numeric, tau1_small_d
from .psf import (
    GAUSSIAN,
    KINDS,
    SINC,
    TransferFunction,
    gaussian_psf,
    load_tabulated,
    sinc_psf,
    sigma_of,
)
from .resolution import COUNTING, d_half_from_curve, superres_window

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


def _positive(value: str) -> float:
    x = float(value)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return x


def add_psf_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--psf", choices=list(KINDS), default=GAUSSIAN, help="PSF kind")
    p.add_argument("--sigma", type=_positive, default=1.0, help="PSF width sigma")
    p.add_argument(
        "--a", type=_positive, default=None, help="sinc lobe scale (alternative to --sigma)"
    )
    p.add_argument("--psf-file", default=None, help="two-column file for --psf tabulated")
    p.add_argument(
        "--normalize-psf", action="store_true", help="rescale a tabulated PSF to unit norm"
    )


def add_grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-min", type=float, default=0.0, help="grid start (units of sigma)")
    p.add_argument("--d-max", type=float, default=5.0, help="grid end (units of sigma)")
    p.add_argument("--count", type=int, default=101, help="number of grid points")
    p.add_argument("--spacing", choices=["linear", "log"], default="linear")


def add_noise_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snr", type=float, default=None, help="n_s / n_b; inf allowed")
    p.add_argument("--n-b", type=float, default=None, help="mean dark counts per window")


def add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--absolute",
        action="store_true",
        help="absolute units for the d grid and outputs instead of sigma units",
    )


def build_psf(args) -> TransferFunction:
    if args.psf == GAUSSIAN:
        return gaussian_psf(args.sigma)
    if args.psf == SINC:
        if args.a is not None:
            return sinc_psf(a=args.a)
        return sinc_psf(sigma=args.sigma)
    if args.psf_file is None:
        raise ValidationError("--psf tabulated requires --psf-file")
    return load_tabulated(args.psf_file, normalize=args.normalize_psf)


def build_noise(args, n_s: float) -> NoiseModel:
    if args.snr is not None and args.n_b is not None:
        raise ValidationError("give exactly one of --snr and --n-b")
    if args.n_b is not None:
        return NoiseModel(n_b=args.n_b)
    if args.snr is not None:
        return NoiseModel.from_snr(args.snr, n_s)
    return NoiseModel(0.0)


def build_grid(args, sigma: float) -> np.ndarray:
    if args.count < 2:
        raise ValidationError(f"grid count must be at least 2, got {args.count}")
    lo, hi = args.d_min, args.d_max
    if not hi > lo:
        raise ValidationError(f"need d-max > d-min, got {lo} .. {hi}")
    if args.spacing == "log":
        if lo <= 0:
            raise ValidationError("log spacing requires d-min > 0")
        grid = np.geomspace(lo, hi, args.count)
    else:
        grid = np.linspace(lo, hi, args.count)
    return grid if args.absolute else grid * sigma


def config_echo(args) -> dict:
    skip = {"func", "out", "config"}
    out = {"version": __version__}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


def _format_cell(x) -> str:
    if x is None:
        return "nan"
    return "%.12g" % x


def write_table(args, columns: list[str], rows: list[list[float]]) -> None:
    cfg = config_echo(args)
    if args.format == "json":
        payload = {"config": cfg, "columns": columns, "rows": rows}
        text = json.dumps(payload) + "\n"
    else:
        lines = ["# " + json.dumps(cfg)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(x) for x in row))
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def write_json(args, payload: dict) -> None:
    text = json.dumps(payload) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def cmd_tau_curve(args) -> int:
    tf = build_psf(args)
    sigma = sigma_of(tf)
    grid = build_grid(args, sigma)
    scale = 1.0 if args.absolute else 1.0 / sigma
    rows = []
    closed_ok = tf.kind in (GAUSSIAN, SINC)
    for d in grid:
        numeric = tau1_numeric(tf, d).tau1
        closed = tau1_closed(tf, d).tau1 if closed_ok else None
        rows.append([d * scale, numeric, closed, tau1_small_d(sigma, d)])
    label = "d" if args.absolute else "d_over_sigma"
    write_table(args, [label, "tau1_numeric", "tau1_closed", "tau1_small_d"], rows)
    return EXIT_OK


def cmd_fi_curve(args) -> int:
    m = MEASUREMENTS[args.measurement]
    tf = build_psf(args)
    sigma = sigma_of(tf)
    noise = build_noise(args, args.n_s)
    grid = build_grid(args, sigma)
    ceiling = qfi(args.n_s, sigma)
    fi_scale = 1.0 if args.absolute else sigma**2 / args.n_s
    d_scale = 1.0 if args.absolute else 1.0 / sigma
    columns = ["d" if args.absolute else "d_over_sigma"]
    columns += [
        "fi" if args.absolute else "fi_times_sigma2_over_ns",
        "fi_small_d",
        "qfi_line",
    ]
    if args.with_direct:
        columns.append("direct_imaging")
    rows = []
    for d in grid:
        scene = SourceScene(tf=tf, d=d, n_s=args.n_s, statistics=args.statistics)
        row = [
            d * d_scale,
            m.fi(scene, noise) * fi_scale,
            m.fi_small_d(scene, noise) * fi_scale,
            ceiling * fi_scale,
        ]
        if args.with_direct:
            row.append(fi_direct(tf, d, args.n_s) * fi_scale)
        rows.append(row)
    write_table(args, columns, rows)
    return EXIT_OK


def cmd_d_half(args) -> int:
    m = MEASUREMENTS[args.measurement]
    snr = args.snr
    if snr is None and m.shot_noise_snr is not None and args.n_s is not None:
        snr = m.shot_noise_snr(args.n_s)
    if snr is None:
        need = "--snr" if m.shot_noise_snr is None else "--snr or --n-s"
        raise ValidationError(f"{args.measurement} d-half requires {need}")
    tf = build_psf(args)
    sigma = sigma_of(tf)
    window = superres_window(sigma, snr, n_s=args.n_s, statistics=args.statistics)
    payload = {
        "config": config_echo(args),
        "model": args.measurement,
        "sigma": sigma,
        "snr": snr,
        "d_half": m.d_half(sigma, snr),
        "window_low": window.low,
        "window_high": window.high,
        "window_empty": window.is_empty,
    }
    if args.numeric:
        if args.n_s is None:
            raise ValidationError("--numeric requires --n-s")
        noise = NoiseModel.from_snr(snr, args.n_s)
        target = 0.5 * m.ceiling * qfi(args.n_s, sigma)

        def fi(d: float) -> float:
            return m.fi(SourceScene(tf=tf, d=d, n_s=args.n_s, statistics=args.statistics), noise)

        payload["d_half_curve"] = d_half_from_curve(fi, target, sigma)
        payload["target_fi"] = target
    write_json(args, payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    tf = build_psf(args)
    noise = build_noise(args, args.n_s)
    scene = SourceScene(tf=tf, d=args.d_true, n_s=args.n_s, statistics=args.statistics)
    exp = Experiment(
        scene=scene,
        noise=noise,
        measurement=args.measurement,
        frames=args.frames,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    report = run_crb_experiment(exp)
    payload = {"config": config_echo(args)}
    payload.update(json.loads(report.to_json(include_estimates=not args.no_estimates)))
    write_json(args, payload)
    return EXIT_OK


def cmd_qfi(args) -> int:
    tf = build_psf(args)
    payload = {"config": config_echo(args), "qfi": qfi(args.n_s, sigma_of(tf))}
    if args.check:
        payload["qfi_numeric"] = qfi_numeric(tf, args.n_s)
        payload["sigma_numeric"] = sigma_of(tf)
    write_json(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaderes",
        description="Resolution limits of binary mode demultiplexing under noisy detection",
    )
    parser.add_argument("--version", action="version", version=f"spaderes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau-curve", help="tabulate the mode-1 transmission versus separation")
    p.add_argument("--config", default=None, help="key=value config file")
    add_psf_options(p)
    add_grid_options(p)
    add_output_options(p)
    p.set_defaults(func=cmd_tau_curve)

    p = sub.add_parser("fi-curve", help="tabulate Fisher information versus separation")
    p.add_argument("--config", default=None)
    add_psf_options(p)
    add_grid_options(p)
    add_noise_options(p)
    add_output_options(p)
    p.add_argument("--measurement", choices=list(MEASUREMENTS), default=COUNTING)
    p.add_argument("--statistics", choices=list(STATISTICS), default=POISSON)
    p.add_argument("--n-s", type=_positive, default=100.0, help="mean source photons per window")
    p.add_argument("--with-direct", action="store_true", help="add a direct-imaging column")
    p.set_defaults(func=cmd_fi_curve)

    p = sub.add_parser("d-half", help="half-resolution distance and superresolution window")
    p.add_argument("--config", default=None)
    add_psf_options(p)
    add_noise_options(p)
    p.add_argument("--measurement", choices=list(MEASUREMENTS), default=COUNTING)
    p.add_argument("--statistics", choices=list(STATISTICS), default=POISSON)
    p.add_argument("--n-s", type=_positive, default=None)
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also extract d-half from the exact information curve",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_d_half)

    p = sub.add_parser("simulate", help="Monte Carlo Cramér-Rao experiment")
    p.add_argument("--config", default=None)
    add_psf_options(p)
    add_noise_options(p)
    p.add_argument("--measurement", choices=list(MEASUREMENTS), default=COUNTING)
    p.add_argument("--statistics", choices=list(STATISTICS), default=POISSON)
    p.add_argument("--n-s", type=_positive, default=100.0)
    p.add_argument("--d-true", type=float, required=True, help="true separation (absolute)")
    p.add_argument("--frames", type=int, default=100, help="observation windows per trial")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=50_000_000)
    p.add_argument("--no-estimates", action="store_true", help="omit per-trial estimates")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qfi", help="quantum information limit n_s / sigma^2")
    p.add_argument("--config", default=None)
    add_psf_options(p)
    p.add_argument("--n-s", type=_positive, default=1.0)
    p.add_argument("--check", action="store_true", help="cross-check via 4 n_s int u'^2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qfi)

    return parser


def load_config_file(path: str) -> list[str]:
    """Turn key=value lines into a flag list; booleans emit bare flags."""
    flags: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(flag)
        else:
            flags.extend([flag, value])
    return flags


def _apply_config(argv: list[str]) -> list[str]:
    # config-supplied flags are injected right after the subcommand, so
    # anything typed on the command line comes later and wins
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv  # argparse will report the missing value
    flags = load_config_file(argv[i + 1])
    return argv[:1] + flags + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, SpaderesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
