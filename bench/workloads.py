"""The benchmark's workloads: job sets, job execution and output checks.

A workload is a fixed sweep.  Its job set holds every point of the sweep, in
a fixed order of slots.  Parameters that do not change a job's cost (Monte
Carlo seeds, signal levels, grid ends) are drawn from their stated sets by
the workload seed, afresh for every round of the job set, so a slot's cost
stays the same while its output changes from round to round.  The job mix,
and with it every timing percentile, is the same for every seed.

Jobs go through the package's public entry points only: ``spaderes.cli.main``
for the CLI workloads and the top-level re-exports for the oracles.  Each job
is timed alone; its output is checked afterwards, outside the timed region,
against the closed forms in :mod:`reference`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri

import reference
import spaderes
import spaderes.cli

SIGMA = 1.0

# Job outcomes.  NUMERIC is the package refusing an answer with its documented
# NumericError (CLI exit code 3); WRONG is an output that failed a check;
# ERROR is any other exception or exit code.  KNOWN is a NumericError that the
# package is known to raise at that point (OracleCurves.KNOWN_REFUSALS).  All
# but OK and KNOWN count as failed jobs; KNOWN jobs complete no items.
OK = "ok"
KNOWN = "known"
NUMERIC = "numeric"
WRONG = "wrong"
ERROR = "error"


@dataclass
class Job:
    command: str
    params: dict
    items: int  # Monte Carlo trials or curve/oracle points the job completes


# ---------------------------------------------------------------------------
# CLI jobs


def _argv(command: str, params: dict) -> list[str]:
    argv = [command]
    for key, value in params.items():
        if value is True:
            argv.append("--" + key)
        elif value is not None and value is not False:
            argv += ["--" + key, str(value)]
    return argv


def run_cli(job: Job):
    """Run one CLI command in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spaderes.cli.main(_argv(job.command, job.params))
    return code, out.getvalue(), err.getvalue()


def _judge_cli(job: Job, output, check) -> tuple[str, str]:
    code, text, err = output
    if code == spaderes.cli.EXIT_NUMERIC:
        return NUMERIC, err.strip()
    if code != 0:
        return ERROR, f"exit code {code}: {err.strip()}"
    try:
        problems = check(job, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unparseable output: {type(exc).__name__}: {exc}"]
    return (WRONG, "; ".join(problems)) if problems else (OK, "")


def _close(value, expected, rel, abs_=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(value) - expected) <= rel * np.abs(expected) + abs_))


def _check_config(cfg: dict, params: dict) -> list[str]:
    problems = []
    for key, value in params.items():
        echoed = cfg.get(key.replace("-", "_"))
        if value is None or isinstance(value, (bool, str)):
            ok = echoed == value and type(echoed) is type(value)
        else:
            ok = echoed is not None and math.isclose(float(echoed), float(value), rel_tol=1e-15)
        if not ok:
            problems.append(f"config echo {key}={echoed!r}, expected {value!r}")
    return problems


def noise_n_b(params: dict) -> float:
    snr = params.get("snr")
    return 0.0 if snr is None else float(params["n-s"]) / float(snr)


# ---------------------------------------------------------------------------


class Workload:
    """One named sweep.  Subclasses define the jobs and how to check them."""

    name = ""
    item = ""  # what Job.items counts

    def build_inputs(self):
        return None

    def warmup_job(self) -> Job:
        raise NotImplementedError

    def jobs(self, rng: random.Random) -> list[Job]:
        """The job set of one round; rng is the workload seed's generator."""
        raise NotImplementedError

    def execute(self, job: Job, inputs):
        return run_cli(job)

    def judge(self, job: Job, output) -> tuple[str, str]:
        raise NotImplementedError

    def bytes_out(self, output) -> int:
        """Bytes the job wrote: the CLI's standard output."""
        return len(output[1].encode())

    def fingerprint(self, output) -> str:
        """What must repeat exactly when the same job runs again."""
        return output[1]


class MonteCarloCRB(Workload):
    """``simulate`` runs compared against the Cramér-Rao bound.

    Trial counts are in the thousands, the CLI's default of 1000 and twice
    that, so that photocount totals repeat within a run as they do in long
    runs: at 1000 trials a counting job has 11-67% distinct totals.  Each
    round draws a fresh Monte Carlo seed for every slot.

    Statistical checks, with the estimates treated as normal:

    * no bias beyond ``BIAS_Z`` standard errors: false-failure probability
      3e-12 for an unbiased estimator.  The moment inversion's own bias is
      below 0.03 sd at these settings (measured at 20000 trials), 1.3
      standard errors at 2000 trials, which raises that to under 1e-8;
    * var/CRB inside the chi-square band of probability ``VAR_P`` for the
      trial count, widened by ``VAR_SLACK`` because the finite-frame
      estimator is efficient only to within 3% here (measured the same way).
    """

    name = "mc-crb"
    item = "trials"

    FRAMES = 200
    N_S = 100.0
    PSFS = ("gaussian", "sinc")
    READOUTS = (  # measurement, statistics, snr
        ("counting", "poisson", 1e4),
        ("counting", "thermal", None),
        ("homodyne", "poisson", None),
        ("heterodyne", "poisson", None),
    )
    D_TRUE = (0.3 * SIGMA, 1.0 * SIGMA)
    TRIALS = (1000, 2000)

    BIAS_Z = 7.0
    VAR_P = 1e-9
    VAR_SLACK = 0.05

    def _job(self, psf, measurement, statistics, snr, d_true, trials, seed) -> Job:
        params = {
            "psf": psf,
            "sigma": SIGMA,
            "measurement": measurement,
            "statistics": statistics,
            "n-s": self.N_S,
            "snr": snr,
            "d-true": d_true,
            "frames": self.FRAMES,
            "trials": trials,
            "seed": seed,
        }
        return Job("simulate", params, trials)

    def warmup_job(self) -> Job:
        return self._job("gaussian", "counting", "poisson", 1e4, 0.3, 250, 0)

    def jobs(self, rng):
        return [
            self._job(psf, m, st, snr, d, trials, rng.randrange(2**31))
            for psf in self.PSFS
            for m, st, snr in self.READOUTS
            for d in self.D_TRUE
            for trials in self.TRIALS
        ]

    def judge(self, job, output):
        return _judge_cli(job, output, self.check)

    def check(self, job: Job, text: str) -> list[str]:
        p = job.params
        report = json.loads(text)
        problems = _check_config(report["config"], p)
        est = np.asarray(report["estimates"], dtype=float)
        n = p["trials"]
        d = p["d-true"]
        if est.shape != (n,) or not np.all(np.isfinite(est)):
            return problems + [f"estimates: want {n} finite values, got shape {est.shape}"]
        fields = ("empirical_variance", "empirical_mse", "crb", "clip_fraction")
        if not all(isinstance(report[k], (int, float)) and math.isfinite(report[k]) for k in fields):
            return problems + ["non-finite report field"]
        var = report["empirical_variance"]
        if report["d_true"] != d:
            problems.append(f"d_true {report['d_true']} != {d}")
        if not _close(var, np.var(est, ddof=1), 1e-12):
            problems.append(f"empirical_variance {var} disagrees with the estimates")
        if not _close(report["empirical_mse"], np.mean((est - d) ** 2), 1e-12):
            problems.append("empirical_mse disagrees with the estimates")
        if not 0.0 <= report["clip_fraction"] <= 1.0 or report["crb_unbounded"]:
            problems.append("clip_fraction outside [0, 1] or unbounded CRB")
        fisher = reference.fi_exact(
            p["psf"], p["measurement"], p["statistics"], d, self.N_S, noise_n_b(p), SIGMA
        )
        crb = 1.0 / (self.FRAMES * float(fisher))
        if not _close(report["crb"], crb, 1e-9):
            problems.append(f"crb {report['crb']!r} != closed form {crb!r}")
        bias = abs(float(np.mean(est)) - d)
        if bias > self.BIAS_Z * math.sqrt(var / n):
            problems.append(f"bias {bias:.3g} beyond {self.BIAS_Z} standard errors")
        lo = chdtri(n - 1, 1.0 - self.VAR_P / 2) / (n - 1) * (1.0 - self.VAR_SLACK)
        hi = chdtri(n - 1, self.VAR_P / 2) / (n - 1) * (1.0 + self.VAR_SLACK)
        if not lo <= var / crb <= hi:
            problems.append(f"var/CRB {var / crb:.4f} outside [{lo:.4f}, {hi:.4f}]")
        return problems


class OracleCurves(Workload):
    """The quadrature and PMF oracles over the CLI's default grid.

    The grid is fixed, so every round repeats the same points exactly.
    Every call of a point runs even when an earlier one raised, so a failing
    point costs what a passing one does.  Tolerances are those of the
    acceptance gate (C2: 1e-9 absolute on tau1 and its derivative; C7: 1e-9
    relative on the counting information) for the analytic kinds.  The
    tabulated kind is checked against the Gaussian it samples, to 1e-7
    absolute on tau1 and 1e-6 relative on the information (worst seen:
    4e-9 and 1.3e-7).  Information that vanishes (d = 0, the turning point
    of tau1) is compared to an absolute floor of 1e-12 of the QFI.

    The known defect stays on the grid: at the points of KNOWN_REFUSALS the
    seed's oracles raise NumericError (ROADMAP item 2a and the tabulated
    turning point).  Such a refusal is judged KNOWN, counted and printed but
    not a failed job.  A refusal at any other point, or by an oracle not
    listed for the point, is NUMERIC and fails.  Once a fix makes a listed
    point answer, its values are checked like every other point's.
    """

    name = "oracle-curves"
    item = "points"

    GRID = tuple(np.linspace(0.0, 5.0 * SIGMA, 101))  # spaderes tau-curve defaults
    KINDS = ("gaussian", "sinc", "tabulated")
    N_S = 100.0
    N_B = 1.0
    TABLE_POINTS = 801
    TABLE_HALF_WIDTH = 8.0 * SIGMA

    TOL = {  # kind: (tau1 absolute, information relative)
        "gaussian": (1e-9, 1e-9),
        "sinc": (1e-9, 1e-9),
        "tabulated": (1e-7, 1e-6),
    }
    FLOOR = 1e-12
    DIRECT_REL = 1e-7  # fi_direct's own quadrature tolerance

    # (kind, d rounded to the grid's 0.05): the oracles that raise NumericError
    # there at the seed -- sinc at d = 2.05-2.55 and 3.8-5, tabulated at c'(d) = 0
    KNOWN_REFUSALS = {
        **{("sinc", round(0.05 * i, 2)): {"tau1_numeric"} for i in (*range(41, 52), *range(76, 101))},
        ("tabulated", 2.0): {"tau1_numeric", "poisson", "thermal"},
    }

    def build_inputs(self):
        x = np.linspace(-self.TABLE_HALF_WIDTH, self.TABLE_HALF_WIDTH, self.TABLE_POINTS)
        u = (2.0 * np.pi * SIGMA**2) ** -0.25 * np.exp(-(x**2) / (4.0 * SIGMA**2))
        tabulated = spaderes.tabulated_psf(x, u, normalize=True)
        psfs = {
            "gaussian": spaderes.gaussian_psf(SIGMA),
            "sinc": spaderes.sinc_psf(sigma=SIGMA),
            "tabulated": tabulated,
        }
        return {kind: (tf, spaderes.sigma_of(tf)) for kind, tf in psfs.items()}

    def warmup_job(self) -> Job:
        return Job("oracle", {"psf": "tabulated", "d": 1.0 * SIGMA}, 1)

    def jobs(self, rng):
        return [Job("oracle", {"psf": k, "d": float(d)}, 1) for k in self.KINDS for d in self.GRID]

    def execute(self, job, inputs):
        tf, _ = inputs[job.params["psf"]]
        d = job.params["d"]
        noise = spaderes.NoiseModel(n_b=self.N_B)
        calls = (
            ("tau1_numeric", spaderes.tau1_numeric, (tf, d)),
            ("fi_direct", spaderes.fi_direct, (tf, d, self.N_S)),
            ("poisson", spaderes.fi_counting_oracle,
             (spaderes.SourceScene(tf, d, self.N_S, spaderes.POISSON), noise)),
            ("thermal", spaderes.fi_counting_oracle,
             (spaderes.SourceScene(tf, d, self.N_S, spaderes.THERMAL), noise)),
        )
        out = {}
        for name, fn, args in calls:
            try:
                out[name] = fn(*args)
            except spaderes.NumericError as exc:
                out[name] = exc
        out["sigma"] = inputs[job.params["psf"]][1]
        return out

    def bytes_out(self, output) -> int:
        return 0

    def fingerprint(self, output) -> str:
        return repr(sorted(output.items()))

    def judge(self, job, output):
        try:
            problems = self.check(job, output)
        except (AttributeError, TypeError, ValueError) as exc:
            problems = [f"malformed result: {type(exc).__name__}: {exc}"]
        if problems:
            return WRONG, "; ".join(problems)
        refused = {k: v for k, v in output.items() if isinstance(v, Exception)}
        if not refused:
            return OK, ""
        detail = "; ".join(f"{k}: {v}" for k, v in refused.items())
        known = self.KNOWN_REFUSALS.get((job.params["psf"], round(job.params["d"], 2)), set())
        return (KNOWN if refused.keys() <= known else NUMERIC), detail

    def check(self, job: Job, output: dict) -> list[str]:
        kind, d = job.params["psf"], job.params["d"]
        ref_kind = "gaussian" if kind == "tabulated" else kind
        tau_tol, fi_tol = self.TOL[kind]
        qfi = self.N_S / output["sigma"] ** 2
        problems = []
        tr = output["tau1_numeric"]
        if not isinstance(tr, Exception):
            tau, dtau = reference.transmission(ref_kind, d, SIGMA)
            if not (_close(tr.tau1, tau, 0.0, tau_tol) and _close(tr.dtau1_dd, dtau, 0.0, tau_tol)):
                problems.append(f"tau1 {tr.tau1!r}/{tr.dtau1_dd!r} vs closed {tau!r}/{dtau!r}")
        direct = output["fi_direct"]
        if not isinstance(direct, Exception):
            if not (math.isfinite(direct) and 0.0 <= direct <= qfi * (1.0 + self.DIRECT_REL)):
                problems.append(f"fi_direct {direct!r} outside [0, qfi={qfi!r}]")
        for statistics in ("poisson", "thermal"):
            fi = output[statistics]
            if isinstance(fi, Exception):
                continue
            ref = reference.fi_counting(ref_kind, d, self.N_S, self.N_B, statistics, SIGMA)
            if not (math.isfinite(fi) and _close(fi, ref, fi_tol, self.FLOOR * qfi)):
                problems.append(f"{statistics} PMF oracle {fi!r} vs closed {float(ref)!r}")
        return problems


class CliScan(Workload):
    """Closed-form ``fi-curve`` tables and ``d-half --numeric`` through ``cli.main``."""

    name = "cli-scan"
    item = "points"

    MEASUREMENTS = ("counting", "homodyne", "heterodyne")
    STATISTICS = ("poisson", "thermal")
    PSFS = ("gaussian", "sinc")
    FORMATS = ("csv", "json")
    COUNTS = (300, 600, 1000, 2000)
    # cost-neutral parameters, drawn for every job of every round by the seed
    N_S = (10.0, 100.0, 1000.0)
    SNR = (1e2, 1e3, 1e4)
    D_MIN = (1e-3, 1e-2)
    D_MAX = (3.0, 5.0)
    # d-half sets where the exact curve does reach its half target
    D_HALF_N_S = (10.0, 100.0)
    D_HALF_SNR = (1e3, 1e4)

    COLUMNS = ["d_over_sigma", "fi_times_sigma2_over_ns", "fi_small_d", "qfi_line"]
    REL = 1e-9
    FLOOR = 1e-12  # in units of the QFI, for information that vanishes
    GRID_REL = 1e-11  # CSV cells carry 12 significant digits

    def _fi_curve(self, measurement, statistics, psf, fmt, count, n_s, snr, d_min, d_max):
        params = {
            "psf": psf,
            "sigma": SIGMA,
            "measurement": measurement,
            "statistics": statistics,
            "n-s": n_s,
            "snr": snr if measurement == "counting" else None,
            "spacing": "log",
            "d-min": d_min,
            "d-max": d_max,
            "count": count,
            "format": fmt,
        }
        return Job("fi-curve", params, count)

    def _d_half(self, measurement, statistics, psf, n_s, snr):
        params = {
            "psf": psf,
            "sigma": SIGMA,
            "measurement": measurement,
            "statistics": statistics,
            "n-s": n_s,
            "snr": snr if measurement == "counting" else None,
            "numeric": True,
        }
        return Job("d-half", params, 1)

    def warmup_job(self) -> Job:
        return self._fi_curve("counting", "poisson", "sinc", "csv", 300, 100.0, 1e3, 1e-3, 5.0)

    def jobs(self, rng):
        jobs = []
        for m in self.MEASUREMENTS:
            for st in self.STATISTICS:
                for psf in self.PSFS:
                    for fmt in self.FORMATS:
                        for count in self.COUNTS:
                            jobs.append(self._fi_curve(
                                m, st, psf, fmt, count, rng.choice(self.N_S),
                                rng.choice(self.SNR), rng.choice(self.D_MIN), rng.choice(self.D_MAX),
                            ))
                    jobs.append(self._d_half(
                        m, st, psf, rng.choice(self.D_HALF_N_S), rng.choice(self.D_HALF_SNR)
                    ))
        return jobs

    def judge(self, job, output):
        check = self.check_fi_curve if job.command == "fi-curve" else self.check_d_half
        return _judge_cli(job, output, check)

    def check_fi_curve(self, job: Job, text: str) -> list[str]:
        p = job.params
        if p["format"] == "json":
            payload = json.loads(text)
            cfg, columns, rows = payload["config"], payload["columns"], payload["rows"]
        else:
            lines = text.splitlines()
            if not lines[0].startswith("# "):
                return ["CSV lacks its config header"]
            cfg, columns = json.loads(lines[0][2:]), lines[1].split(",")
            rows = [[float(cell) for cell in line.split(",")] for line in lines[2:]]
        problems = _check_config(cfg, p)
        if columns != self.COLUMNS:
            return problems + [f"columns {columns}"]
        table = np.asarray(rows, dtype=float)
        if table.shape != (p["count"], 4) or not np.all(np.isfinite(table)):
            return problems + [f"want {p['count']} finite rows of 4, got shape {table.shape}"]
        d, fi, fi_small, qfi_line = table.T
        rel = self.GRID_REL if p["format"] == "csv" else 1e-15
        if not _close(d, np.geomspace(p["d-min"], p["d-max"], p["count"]), rel):
            problems.append("d grid differs from the requested log grid")
        if not _close(qfi_line, 1.0, rel):
            problems.append("qfi_line is not 1 in sigma units")
        if np.any(fi > qfi_line * (1.0 + self.REL)) or np.any(fi_small > qfi_line * (1.0 + self.REL)):
            problems.append("information above the QFI line")
        n_s, n_b = p["n-s"], noise_n_b(p)
        scale = SIGMA**2 / n_s
        ref = reference.fi_exact(p["psf"], p["measurement"], p["statistics"], d, n_s, n_b, SIGMA)
        if not _close(fi, ref * scale, self.REL, self.FLOOR):
            worst = float(np.max(np.abs(fi - ref * scale)))
            problems.append(f"fi column off the closed form by up to {worst:.3g}")
        ref_small = reference.fi_small_d(p["measurement"], p["statistics"], d, n_s, n_b, SIGMA)
        if not _close(fi_small, ref_small * scale, self.REL, self.FLOOR):
            problems.append("fi_small_d column off the small-d law")
        return problems

    def check_d_half(self, job: Job, text: str) -> list[str]:
        p = job.params
        out = json.loads(text)
        problems = _check_config(out["config"], p)
        m, n_s = p["measurement"], p["n-s"]
        snr = p["snr"] if m == "counting" else reference.shot_noise_snr(m, n_s)
        target = (0.5 if m == "counting" else 0.125) * n_s / SIGMA**2
        expected = {
            "sigma": SIGMA,
            "snr": snr,
            "d_half": reference.d_half(m, SIGMA, snr),
            "window_low": reference.d_half("counting", SIGMA, snr),
            "target_fi": target,
        }
        for key, value in expected.items():
            if not _close(out[key], value, 1e-12):
                problems.append(f"{key} {out[key]!r} != {value!r}")
        root = out["d_half_curve"]
        if not (isinstance(root, float) and 0.0 < root < 3.0 * SIGMA):
            return problems + [f"d_half_curve {root!r} outside (0, 3 sigma)"]
        fi = reference.fi_exact(p["psf"], m, p["statistics"], root, n_s, noise_n_b(p), SIGMA)
        if not _close(fi, target, 1e-6):
            problems.append(f"FI at d_half_curve is {float(fi)!r}, target {target!r}")
        return problems


WORKLOADS = {w.name: w for w in (MonteCarloCRB(), OracleCurves(), CliScan())}
