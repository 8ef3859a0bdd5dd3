"""Batch front end: curve tabulation, resolution summaries, and simulations.

Subcommands: tau-curve, fi-curve, d-half, simulate, qfi.  Output is CSV (one
'#'-prefixed header line carrying the resolved config as JSON, then 12
significant digits per value) or JSON with full-precision floats.  Numeric
options must be finite, except --snr, where inf means no dark counts.  Axes are
dimensionless by default, d in units of sigma and information as
FI sigma^2 / n_s; --absolute switches both the d grid interpretation and the
output columns to absolute units.

Options may come from a key=value config file via --config, which each
subcommand's own parser reads, so a prefix of it that is ambiguous is refused;
the file's flags go in right after the subcommand, so flags given on the
command line win.  Exit codes: 0 success, 2 usage, 3 numeric failure (including
any floating-point overflow), 4 more trials or grid points than MAX_POINTS.
One parser is built per process, on the first main call, and then reused.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .counting import NO_NOISE, POISSON, STATISTICS, NoiseModel, SourceScene
from .direct_imaging import fi_direct, qfi, qfi_numeric
from .errors import BudgetError, NumericError, SpaderesError, ValidationError
from .montecarlo import MAX_POINTS, MEASUREMENTS, Experiment, Measurement, run_crb_experiment
from .overlap import tau1_exact, tau1_numeric, tau1_small_d
from .psf import (
    GAUSSIAN,
    KINDS,
    SINC,
    TABULATED,
    TransferFunction,
    gaussian_psf,
    load_tabulated,
    sinc_psf,
)
from .resolution import COUNTING, d_half_from_curve, superres_window

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4

# exit code of each error class main reports; an error takes the code of its
# nearest listed base class.  ArithmeticError covers Python's OverflowError and
# numpy's FloatingPointError, which main raises for every overflow.
EXIT_CODES = {
    SpaderesError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    NumericError: EXIT_NUMERIC,
    ArithmeticError: EXIT_NUMERIC,
    BudgetError: EXIT_BUDGET,
}


def _finite(value: str) -> float:
    x = float(value)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return x


def _positive(value: str) -> float:
    x = _finite(value)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return x


def _nonnegative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return n


def add_io_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def add_psf_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--psf", choices=list(KINDS), default=GAUSSIAN, help="PSF kind")
    width = p.add_mutually_exclusive_group()
    width.add_argument("--sigma", type=_positive, default=None, help="PSF width sigma (default 1)")
    width.add_argument(
        "--a", type=_positive, default=None, help="sinc lobe scale (instead of --sigma)"
    )
    p.add_argument("--psf-file", default=None, help="two-column file for --psf tabulated")
    p.add_argument(
        "--normalize-psf", action="store_true", help="rescale a tabulated PSF to unit norm"
    )


def add_grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-min", type=_finite, default=0.0, help="grid start (units of sigma)")
    p.add_argument("--d-max", type=_finite, default=5.0, help="grid end (units of sigma)")
    p.add_argument("--count", type=int, default=101, help="number of grid points")
    p.add_argument("--spacing", choices=["linear", "log"], default="linear")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--absolute",
        action="store_true",
        help="absolute units for the d grid and outputs instead of sigma units",
    )


def add_readout_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snr", type=float, default=None, help="n_s / n_b; inf allowed")
    p.add_argument("--n-b", type=float, default=None, help="mean dark counts per window")
    p.add_argument("--measurement", choices=list(MEASUREMENTS), default=COUNTING)
    p.add_argument("--statistics", choices=list(STATISTICS), default=POISSON)


# the PSF kinds that each PSF option describes
PSF_OPTIONS = dict(
    sigma=(GAUSSIAN, SINC), a=(SINC,), psf_file=(TABULATED,), normalize_psf=(TABULATED,)
)


def build_psf(args) -> TransferFunction:
    """The PSF the options describe; its sigma replaces args.sigma, so that
    the config echo names the PSF that ran.  An option given for a kind it
    does not describe is refused."""
    for name, kinds in PSF_OPTIONS.items():
        if getattr(args, name) not in (None, False) and args.psf not in kinds:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"--psf {args.psf} takes no {flag} (for {'/'.join(kinds)})")
    width = 1.0 if args.sigma is None else args.sigma
    if args.psf == GAUSSIAN:
        tf = gaussian_psf(width)
    elif args.psf == SINC:
        tf = sinc_psf(sigma=width) if args.a is None else sinc_psf(a=args.a)
    elif args.psf_file is None:
        raise ValidationError("--psf tabulated requires --psf-file")
    else:
        tf = load_tabulated(args.psf_file, normalize=args.normalize_psf)
    args.sigma = tf.sigma
    return tf


def build_noise(args, m: Measurement, n_s: float) -> NoiseModel:
    """Dark counts from --n-b or from --snr = n_s / n_b; counting readouts only."""
    flags = (("--snr", args.snr), ("--n-b", args.n_b))
    given = [flag for flag, value in flags if value is not None]
    if len(given) > 1:
        raise ValidationError("give exactly one of --snr and --n-b")
    if given and m.shot_noise_snr is not None:
        raise ValidationError(f"{given[0]} sets dark counts; {args.measurement} has only vacuum noise")
    if args.n_b is not None:
        return NoiseModel(n_b=args.n_b)
    return NO_NOISE if args.snr is None else NoiseModel.from_snr(args.snr, n_s)


def build_grid(args, sigma: float) -> np.ndarray:
    if args.count < 2:
        raise ValidationError(f"grid count must be at least 2, got {args.count}")
    if args.count > MAX_POINTS:
        raise BudgetError(f"{args.count} grid points exceed the cap of {MAX_POINTS}")
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


def _emit(args, text: str) -> None:
    """Write text and a final newline to the --out file, or to stdout if there is none."""
    text += "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def write_table(args, columns: list[str], rows: list[list[float]]) -> None:
    cfg = config_echo(args)
    if args.format == "json":
        _emit(args, json.dumps({"config": cfg, "columns": columns, "rows": rows}))
        return
    fmt = ",".join(["%.12g"] * len(columns))
    lines = ["# " + json.dumps(cfg), ",".join(columns)]
    lines += [fmt % tuple(row) for row in rows]
    _emit(args, "\n".join(lines))


def _json_floats(values: np.ndarray) -> str:
    """json.dumps(values.tolist()), with each distinct value's text made once.

    Values are distinct by their bits, so -0.0 keeps its text beside 0.0;
    the distinct values' texts are json.dumps's own, split at its
    separators, and are joined back in the order of ``values``.
    """
    bits, each = np.unique(values.view(np.int64), return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    return "[" + ", ".join(np.array(texts, dtype=object)[each].tolist()) + "]"


def write_json(args, payload: dict, repeats: str | None = None) -> None:
    """The config echo and the payload as one JSON object, json.dumps's bytes.

    ``repeats`` names a payload key whose value is a float64 array with
    values that repeat; its text is made by :func:`_json_floats` and put in
    the key's place.
    """
    obj = {"config": config_echo(args), **payload}
    if repeats is None:
        _emit(args, json.dumps(obj))
        return
    items = list(obj.items())
    at = list(obj).index(repeats)
    head = json.dumps(dict(items[:at]))[:-1]  # "{" and the items before, the config first
    tail = json.dumps(dict(items[at + 1 :]))[1:]  # the items after, and "}"
    sep = ", " if tail != "}" else ""
    _emit(args, f"{head}, {json.dumps(repeats)}: {_json_floats(obj[repeats])}{sep}{tail}")


def cmd_tau_curve(args) -> None:
    tf = build_psf(args)
    sigma = tf.sigma
    grid = build_grid(args, sigma)
    scale = 1.0 if args.absolute else 1.0 / sigma
    numeric, exact = tau1_numeric(tf, grid).tau1.tolist(), tau1_exact(tf, grid).tau1.tolist()
    columns = [(grid * scale).tolist(), numeric, exact, tau1_small_d(sigma, grid).tolist()]
    label = "d" if args.absolute else "d_over_sigma"
    write_table(args, [label, "tau1_numeric", "tau1_closed", "tau1_small_d"], list(zip(*columns)))


def cmd_fi_curve(args) -> None:
    m = MEASUREMENTS[args.measurement]
    tf = build_psf(args)
    sigma = tf.sigma
    noise = build_noise(args, m, args.n_s)
    grid = build_grid(args, sigma)
    scene = SourceScene(tf=tf, d=grid, n_s=args.n_s, statistics=args.statistics)
    fi_scale = 1.0 if args.absolute else sigma**2 / args.n_s
    d_scale = 1.0 if args.absolute else 1.0 / sigma
    columns = ["d", "fi"] if args.absolute else ["d_over_sigma", "fi_times_sigma2_over_ns"]
    columns += ["fi_small_d", "qfi_line"]
    table = [
        grid * d_scale,
        m.fi(scene, noise) * fi_scale,
        m.fi_small_d(scene, noise) * fi_scale,
        np.full(grid.shape, qfi(args.n_s, sigma) * fi_scale),
    ]
    if args.with_direct:
        columns.append("direct_imaging")
        table.append(fi_direct(tf, grid, args.n_s) * fi_scale)
    write_table(args, columns, np.column_stack(table).tolist())


def cmd_d_half(args) -> None:
    m = MEASUREMENTS[args.measurement]
    # --snr is the readout's own SNR: n_s / n_b, or a quadrature shot-noise SNR,
    # which --n-s alone also sets, so a quadrature readout takes one of the two
    snr, noise = args.snr, None
    if args.n_b is not None:
        if args.n_s is None:
            raise ValidationError("--n-b requires --n-s")
        noise = build_noise(args, m, args.n_s)
        snr = noise.snr(args.n_s)
    elif m.shot_noise_snr is not None and args.n_s is not None:
        if snr is not None:
            raise ValidationError(
                f"give one of --snr and --n-s: --n-s sets the {args.measurement} shot-noise SNR"
            )
        snr = m.shot_noise_snr(args.n_s)
    if snr is None:
        need = "--snr or --n-b" if m.shot_noise_snr is None else "--snr or --n-s"
        raise ValidationError(f"{args.measurement} d-half requires {need}")
    tf = build_psf(args)
    sigma = tf.sigma
    window = superres_window(sigma, snr, n_s=args.n_s, statistics=args.statistics)
    payload = {
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
        if noise is None:
            noise = NoiseModel.from_snr(snr, args.n_s)
        target = 0.5 * m.ceiling * qfi(args.n_s, sigma)

        def fi(d):
            return m.fi(SourceScene(tf=tf, d=d, n_s=args.n_s, statistics=args.statistics), noise)

        payload["d_half_curve"] = d_half_from_curve(fi, target, sigma)
        payload["target_fi"] = target
    write_json(args, payload)


def cmd_simulate(args) -> None:
    """The TrialReport of one Monte Carlo experiment, as JSON after the config echo.

    A counting readout's estimate is a function of the trial's integer
    photocount total, so its estimates repeat from trial to trial, and each
    distinct one is written once (:func:`_json_floats`); a quadrature
    readout's are all distinct and take plain json.dumps.  Either way the
    bytes are json.dumps's.
    """
    if args.d_true is None:
        raise ValidationError("simulate requires --d-true (a flag or a --config key)")
    tf = build_psf(args)
    noise = build_noise(args, MEASUREMENTS[args.measurement], args.n_s)
    scene = SourceScene(tf=tf, d=args.d_true, n_s=args.n_s, statistics=args.statistics)
    exp = Experiment(
        scene=scene,
        noise=noise,
        measurement=args.measurement,
        frames=args.frames,
        trials=args.trials,
        seed=args.seed,
    )
    # a shallow copy of the fields: asdict would deep-copy every estimate
    report = dict(vars(run_crb_experiment(exp)))
    repeats = None
    if args.no_estimates:
        del report["estimates"]
    elif MEASUREMENTS[args.measurement].discrete:
        report["estimates"] = np.fromiter(report["estimates"], float, args.trials)
        repeats = "estimates"
    write_json(args, report, repeats)


def cmd_qfi(args) -> None:
    tf = build_psf(args)
    payload = {"qfi": qfi(args.n_s, tf.sigma)}
    if args.check:
        payload["qfi_numeric"] = qfi_numeric(tf, args.n_s)
        payload["sigma_numeric"] = tf.sigma
    write_json(args, payload)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaderes",
        description="Resolution limits of binary mode demultiplexing under noisy detection",
    )
    parser.add_argument("--version", action="version", version=f"spaderes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau-curve", help="tabulate the mode-1 transmission versus separation")
    add_io_options(p)
    add_psf_options(p)
    add_grid_options(p)
    p.set_defaults(func=cmd_tau_curve)

    p = sub.add_parser("fi-curve", help="tabulate Fisher information versus separation")
    add_io_options(p)
    add_psf_options(p)
    add_grid_options(p)
    add_readout_options(p)
    p.add_argument("--n-s", type=_positive, default=100.0, help="mean source photons per window")
    p.add_argument("--with-direct", action="store_true", help="add a direct-imaging column")
    p.set_defaults(func=cmd_fi_curve)

    p = sub.add_parser("d-half", help="half-resolution distance and superresolution window")
    add_io_options(p)
    add_psf_options(p)
    add_readout_options(p)
    p.add_argument("--n-s", type=_positive, default=None)
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also extract d-half from the exact information curve",
    )
    p.set_defaults(func=cmd_d_half)

    p = sub.add_parser("simulate", help="Monte Carlo Cramér-Rao experiment")
    add_io_options(p)
    add_psf_options(p)
    add_readout_options(p)
    p.add_argument("--n-s", type=_positive, default=100.0)
    p.add_argument(
        "--d-true", type=_finite, default=None, help="true separation (absolute); required"
    )
    p.add_argument("--frames", type=int, default=100, help="observation windows per trial")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--no-estimates", action="store_true", help="omit per-trial estimates")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qfi", help="quantum information limit n_s / sigma^2")
    add_io_options(p)
    add_psf_options(p)
    p.add_argument("--n-s", type=_positive, default=1.0)
    p.add_argument("--check", action="store_true", help="cross-check via 4 n_s int u'^2")
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's flags go right after the subcommand, so anything typed
            # on the command line comes later and wins
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + load_config_file(args.config) + argv[at:])
        with np.errstate(over="raise"):
            args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
