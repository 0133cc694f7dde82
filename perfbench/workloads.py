"""The benchmark's workloads, the output checks that gate them, and their metrics.

A workload runs in *chunks*.  A sweep chunk is one in-process
``elcov simulate`` call of ``chunk`` trials per sample count; a joint-select
chunk is ``chunk`` training batches per sample count, each turned into a
jointly selected estimate by direct library calls.  Chunk ``c`` draws every
input from a seed derived from ``(seed, c)``, so the same seed gives the
same inputs.  A *pass* runs chunks ``0 .. quality-1``: its outputs give the
SINR quality guard and the determinism digests, the timed phase repeats it,
and a traced run traces one pass, so per-layer counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import elcov
import elcov.cli as elcov_cli
from tracing import Tracer

LR0_TRIALS = 20000
JOINT_SCORED_CHUNKS = 3  # joint-select scores SINR on this many chunks; sweeps on every chunk

# Machine-speed reference.  On a shared 2-vCPU Xeon VM the speed drifts by
# up to 2x for seconds to minutes at a time (other tenants), so fixed
# numpy-only jobs are timed right before and after each timed piece of work
# and the piece's wall time is rescaled to the speed at which the job takes
# its reference time.  Times are then "reference seconds"; raw wall times
# are kept in the detail record.  Small matrices with Python loops (the
# timed phase) and cache- or memory-bound batched BLAS (the lr0 build) slow
# down unevenly, so each has its own job.
REFERENCE_CAL_S = 0.010
REFERENCE_SETUP_CAL_S = 0.015
_CAL_REPS = 80
_CAL_B = np.random.default_rng(20261017).standard_normal((2, 20, 20))
_CAL_A = (_CAL_B[0] + 1j * _CAL_B[1]) @ (_CAL_B[0] + 1j * _CAL_B[1]).conj().T


def calibrate() -> float:
    """Wall seconds for the timed phase's reference job: small Hermitian eigh, Python loop."""
    start = time.perf_counter()
    for _ in range(_CAL_REPS):
        w, v = np.linalg.eigh(_CAL_A)
        v.conj().T @ _CAL_A[:, :4]
        total = 0.0
        for x in w:
            total += float(x)
    return time.perf_counter() - start


def calibrate_setup() -> float:
    """Wall seconds for set-up's reference job: the N = 20 lr0 build's kind of work.

    A Gaussian draw, a batched Gram product and a batched ``slogdet`` over
    256 complex 20 x 40 matrices, on fixed inputs: about 15 ms on the
    baseline machine, and a working set well below the build's, so that
    the build, not the job, sets the peak RSS.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20261017)
    z = rng.standard_normal((256, 20, 40)) + 1j * rng.standard_normal((256, 20, 40))
    s = z @ z.conj().transpose(0, 2, 1) / 40
    np.linalg.slogdet(s)
    np.einsum("tii->t", s)
    return time.perf_counter() - start


def _angles(*degrees) -> str:
    return ", ".join(repr(float(np.deg2rad(a))) for a in degrees)


# Three jammers, phase angles in radians: the scenario of the paper, the
# ROADMAP and tests/conftest.reference_scenario.
REFERENCE_SCENARIO = f"""[scenario]
n = 20
noise_power = 1.0
jammer_powers = 10, 100, 1000
jammer_angles = {_angles(20.0, 40.0, 60.0)}
jammer_bandwidths = 0.2, 0, 0.3
angle_mode = radians
"""

LARGE_SCENARIO = """[scenario]
n = 64
noise_power = 1.0
jammer_powers = 10, 30, 100, 300, 1000, 3000
jammer_angles = -47, -25, -8, 12, 33, 58
jammer_bandwidths = 0.05, 0.1, 0.15, 0.2, 0.25, 0.3
angle_mode = degrees
"""

CORRUPTION = """[corruption]
fraction = 0.5
amplitude = 50
angle = 0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    scenario: str
    k_list: tuple[int, ...]
    estimators: tuple[str, ...]  # empty for the joint-select workload
    chunk: int
    quality: int
    setup_reps: int
    # Rescale set-up by calibrate_setup.  Not at N = 64: there set-up is one
    # 15 s memory-bound build, and no job run at its ends tracked its speed
    # reliably; rescaling widened the spread over seeds about as often as
    # it narrowed it.
    rescale_setup: bool = True
    corruption: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-sweep",
            n=20, scenario=REFERENCE_SCENARIO,
            k_list=(20, 30, 40),
            estimators=("SMI", "FML", "RCML_EL", "RCML_FIXED(5)", "CNCML_ML", "CNCML_EL",
                        "LSMI_EL"),
            chunk=10, quality=6, setup_reps=3,
        ),
        Workload(
            name="corrupt-sweep",
            n=20, scenario=REFERENCE_SCENARIO,
            k_list=(20, 30, 40),
            estimators=("SMI", "FML", "RCML_EL", "RCML_FIXED(5)", "CNCML_ML", "LSMI_EL"),
            chunk=100, quality=3, setup_reps=3,
            corruption=CORRUPTION,
        ),
        Workload(
            name="large-n",
            n=64, scenario=LARGE_SCENARIO,
            k_list=(128,),
            estimators=("SMI", "FML", "RCML_EL", "CNCML_EL", "LSMI_EL"),
            chunk=10, quality=4, setup_reps=1,
            rescale_setup=False,
        ),
        Workload(
            name="joint-select",
            n=20, scenario=REFERENCE_SCENARIO,
            k_list=(20, 30, 40),
            estimators=(),
            chunk=100, quality=10, setup_reps=3,
        ),
    )
}


def derive_seed(*keys: int) -> int:
    """A non-negative 32-bit seed derived from integer keys."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass
class Chunk:
    """Outcome of one chunk: op counts, timed seconds and checked outputs."""

    attempted: int
    failed: int
    seconds: float
    latencies_ms: list[float]
    sinr_db: list[float]
    digest: str
    problems: list[str] = field(default_factory=list)
    cal_s: float = REFERENCE_CAL_S  # the reference job's mean time around the chunk

    @property
    def scale(self) -> float:
        """Factor from wall seconds to reference seconds."""
        return REFERENCE_CAL_S / self.cal_s


def _sweep_row_problem(row: dict, n: int) -> str | None:
    """Property checks on one trials.csv row; None when the row passes."""
    sinr = float(row["sinr_db"])
    if not (math.isfinite(sinr) and sinr <= 0.0):
        return f"sinr_db {sinr!r} is not a finite value <= 0 dB"
    if row["r"] and not 0 <= int(row["r"]) <= n:
        return f"r {row['r']} outside [0, {n}]"
    if row["sigma2"] and not 0.0 < float(row["sigma2"]) < math.inf:
        return f"sigma2 {row['sigma2']} is not positive"
    if row["kmax"] and not 1.0 <= float(row["kmax"]) < math.inf:
        return f"kmax {row['kmax']} is below 1"
    if row["beta"] and not 0.0 <= float(row["beta"]) < math.inf:
        return f"beta {row['beta']} is negative"
    return None


def check_sweep_outputs(out_dir: Path, w: Workload, trials: int):
    """Check trials.csv and summary.csv of one sweep.

    Returns ``(failed_cells, problems, digest, summary_means)``: cells that
    are missing or fail a property check, what failed, a digest of both
    files' bytes and the summary's ``mean_sinr_db`` column.
    """
    expected = {(k, t, e) for k in w.k_list for t in range(trials) for e in w.estimators}
    try:
        raw_trials = (out_dir / "trials.csv").read_bytes()
        raw_summary = (out_dir / "summary.csv").read_bytes()
    except OSError as exc:
        return len(expected), [f"missing output: {exc}"], "", []
    digest = hashlib.sha256(raw_trials + b"\0" + raw_summary).hexdigest()
    problems: list[str] = []
    bad: set = set()
    cells: dict[tuple, float] = {}
    try:
        for row in csv.DictReader(io.StringIO(raw_trials.decode("utf-8"))):
            key = (int(row["k"]), int(row["trial"]), row["estimator"])
            why = _sweep_row_problem(row, w.n)
            if why or key in cells or key not in expected:
                bad.add(key)
                problems.append(f"trials.csv {key}: {why or 'unexpected or duplicate row'}")
            cells[key] = float(row["sinr_db"])
        missing = expected - set(cells)
        if missing:
            bad |= missing
            problems.append(f"trials.csv has {len(cells)} rows, expected {len(expected)}")
        means = []
        summary_keys = set()
        for row in csv.DictReader(io.StringIO(raw_summary.decode("utf-8"))):
            k, est = int(row["k"]), row["estimator"]
            summary_keys.add((k, est))
            mean = float(row["mean_sinr_db"])
            means.append(mean)
            values = [v for (kk, _, e), v in cells.items() if kk == k and e == est]
            if int(row["trials"]) != len(values) or not values or not math.isclose(
                mean, math.fsum(values) / len(values), rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(f"summary.csv ({k}, {est}) disagrees with trials.csv")
        if summary_keys != {(k, e) for k in w.k_list for e in w.estimators}:
            problems.append("summary.csv does not hold one row per (k, estimator)")
    except (KeyError, ValueError) as exc:
        return len(expected), [f"unparseable output: {exc!r}"], digest, []
    if problems and not bad:
        bad = expected  # a summary disagreement cannot be pinned on one cell
    return len(bad), problems, digest, means


class Runner:
    """Runs one workload in a work directory inside the checkout."""

    def __init__(self, w: Workload, seed: int, workdir: Path, tiny: bool):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.chunk_size = 2 if tiny else w.chunk
        self.quality = 1 if tiny else w.quality
        self.setup_reps = 1 if tiny else w.setup_reps
        self.lr0_trials = 500 if tiny else LR0_TRIALS
        self.lr0_seed = derive_seed(seed, 0x6C7230)
        self.table = workdir / "lr0_table.txt"
        self.out_dir = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)

    # -- inputs ---------------------------------------------------------

    def config_path(self, chunk: int) -> Path:
        w = self.w
        text = w.scenario + "\n[experiment]\n" + "\n".join([
            "k_list = " + ", ".join(str(k) for k in w.k_list),
            f"trials = {self.chunk_size}",
            f"master_seed = {derive_seed(self.seed, chunk)}",
            "estimators = " + (", ".join(w.estimators) or "RCML_EL_SIGMA"),
            f"lr0_table = {self.table}",
            "autocompute = false",
            f"output = {self.out_dir}",
        ]) + "\n" + (("\n" + w.corruption) if w.corruption else "")
        path = self.workdir / f"chunk{chunk}.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def setup(self) -> tuple[float, float]:
        """Scenario construction plus a cold lr0 table build.

        Returns ``(reference seconds, wall seconds)``.  Each ``(N, K)``
        build is rescaled by the set-up reference job run right before and
        right after it, unless the workload says not to; the config load and
        covariance go with the first build.
        """
        w = self.w
        self.table.unlink(missing_ok=True)
        path = self.config_path(0)
        calibrate_setup()  # untimed: the first call pays for fresh memory
        ref_s = wall_s = 0.0
        for i, k in enumerate(w.k_list):
            before = calibrate_setup()
            start = time.perf_counter()
            if i == 0:
                cfg = elcov.load_experiment_config(str(path))
                r_true = elcov.jammer_covariance(cfg.scenario)
            ref = elcov.lr0_reference(w.n, k, trials=self.lr0_trials, seed=self.lr0_seed)
            elcov.lr0_store(ref, str(self.table))
            elapsed = time.perf_counter() - start
            cal_s = 0.5 * (before + calibrate_setup())
            ref_s += elapsed * REFERENCE_SETUP_CAL_S / cal_s if w.rescale_setup else elapsed
            wall_s += elapsed
        self.cfg, self.r_true = cfg, r_true
        return ref_s, wall_s

    # -- chunks ---------------------------------------------------------

    def run_chunk(self, c: int, score: bool) -> Chunk:
        """Run chunk ``c``; ``score`` asks for its SINR quality values."""
        before = calibrate()
        chunk = self._sweep_chunk(c) if self.w.estimators else self._joint_chunk(c, score)
        chunk.cal_s = 0.5 * (before + calibrate())
        return chunk

    def _sweep_chunk(self, c: int) -> Chunk:
        w = self.w
        path = self.config_path(c)
        for name in ("trials.csv", "summary.csv"):
            (self.out_dir / name).unlink(missing_ok=True)
        attempted = len(w.k_list) * self.chunk_size * len(w.estimators)
        records: list = []
        inner = elcov_cli.run_experiment

        def capture(cfg):
            result = inner(cfg)
            records.extend(result)
            return result

        err = io.StringIO()
        elcov_cli.run_experiment = capture
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = elcov_cli.cli(["simulate", "--config", str(path)])
        except Exception as exc:  # a crash is recorded as a failed sweep
            code, err = None, io.StringIO(repr(exc))
        finally:
            elapsed = time.perf_counter() - start
            elcov_cli.run_experiment = inner
        if code != 0:
            return Chunk(attempted, attempted, elapsed, [], [], "",
                         [f"chunk {c}: simulate exit code {code}: {err.getvalue().strip()}"])
        failed, problems, digest, means = check_sweep_outputs(self.out_dir, w, self.chunk_size)
        latencies = [1e3 * rec.wall_time for rec in records]
        if len(latencies) != attempted:
            problems.append(f"chunk {c}: run_experiment returned {len(latencies)} records")
        return Chunk(attempted, failed, elapsed, latencies, means, digest,
                     [f"chunk {c}: {p}" for p in problems])

    def _joint_chunk(self, c: int, scored: bool) -> Chunk:
        w, cfg, n = self.w, self.cfg, self.w.n
        if not hasattr(self, "lr0"):
            self.lr0 = {k: elcov.lr0_load(n, k, str(self.table)).lr0 for k in w.k_list}
            self.r_init = cfg.r_init if cfg.r_init is not None else cfg.scenario.jammer_count
            self.nmf_steering = elcov.steering_vector(n, cfg.nmf_angle)
            self.grid = [elcov.steering_vector(n, a)
                         for a in elcov.default_steering_grid(cfg.scenario)]
        chunk = Chunk(0, 0, 0.0, [], [], "")
        outcomes = []
        for i in range(c * self.chunk_size, (c + 1) * self.chunk_size):
            for k in w.k_list:
                rng = elcov.derive_rng(cfg.master_seed, "joint", k, i)
                z = elcov.generate_training(self.r_true, k, None, rng).z
                chunk.attempted += 1
                start = time.perf_counter()
                try:
                    eig = elcov.eig_hermitian(elcov.sample_covariance(z))
                    joint = elcov.select_rank_sigma(
                        eig, k, self.r_init, self.lr0[k], z, self.nmf_steering)
                    est = elcov.rcml(
                        elcov.SampleStats(n=n, k=k, s_eig=eig, sigma2=joint.sigma2_hat),
                        joint.r_hat)
                except Exception as exc:  # recorded as a failed op
                    elapsed = time.perf_counter() - start
                    chunk.seconds += elapsed
                    chunk.latencies_ms.append(1e3 * elapsed)
                    chunk.failed += 1
                    outcomes.append((k, i, type(exc).__name__))
                    if not isinstance(exc, elcov.NumericalError):
                        chunk.problems.append(f"chunk {c} batch ({k}, {i}): {exc!r}")
                    continue
                elapsed = time.perf_counter() - start
                chunk.seconds += elapsed
                chunk.latencies_ms.append(1e3 * elapsed)
                outcome = (k, i, joint.r_hat, repr(joint.sigma2_hat), joint.chosen_from,
                           joint.iterations)
                problem = None
                if not 0 <= joint.r_hat <= n - 1:
                    problem = f"r_hat {joint.r_hat} outside [0, {n - 1}]"
                elif not 0.0 < joint.sigma2_hat < math.inf:
                    problem = f"sigma2_hat {joint.sigma2_hat!r} is not positive"
                elif scored:
                    sinr = float(np.mean([10.0 * math.log10(elcov.normalized_sinr(
                        est, self.r_true, s)) for s in self.grid]))
                    if not (math.isfinite(sinr) and sinr <= 0.0):
                        problem = f"sinr_db {sinr!r} is not a finite value <= 0 dB"
                    chunk.sinr_db.append(sinr)
                if problem:
                    chunk.failed += 1
                    chunk.problems.append(f"chunk {c} batch ({k}, {i}): {problem}")
                outcomes.append(outcome)
        chunk.digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
        return chunk

    # -- phases ---------------------------------------------------------

    def _pass(self, score: bool) -> list[Chunk]:
        return [self.run_chunk(c, score and c < JOINT_SCORED_CHUNKS) for c in range(self.quality)]

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced run: end-to-end metrics plus a detail record.

        The timed phase repeats passes over the same chunks while another
        pass fits in ``seconds`` (at least three).  Each chunk's time and
        each op's latency, in reference seconds, is its median over the
        passes.  Set-up time is the median of its repetitions, each in
        reference seconds, or in wall seconds where the workload does not
        rescale set-up.
        """
        setups = [self.setup() for _ in range(self.setup_reps)]
        warm = self.run_chunk(0, score=False)
        passes: list[list[Chunk]] = []
        start = time.perf_counter()
        while True:
            passes.append(self._pass(score=not passes))
            elapsed = time.perf_counter() - start
            if len(passes) >= 3 and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        problems = [p for chunks in passes for ch in chunks for p in ch.problems]
        problems += _compare([warm], passes[0][:1], "warm-up", "timed run")
        for i, chunks in enumerate(passes[1:], start=1):
            problems += _compare(passes[0], chunks, "pass 0", f"pass {i}")
        attempted = sum(ch.attempted for chunks in passes for ch in chunks)
        failed = sum(ch.failed for chunks in passes for ch in chunks)
        per_pass = sum(ch.attempted - ch.failed for ch in passes[0])
        columns = [[chunks[c] for chunks in passes] for c in range(self.quality)]
        busy = sum(statistics.median(ch.seconds * ch.scale for ch in col) for col in columns)
        wall_busy = sum(statistics.median(ch.seconds for ch in col) for col in columns)
        latencies = [statistics.median(op) for col in columns for op in zip(
            *([x * ch.scale for x in ch.latencies_ms] for ch in col))]
        sinr = [x for ch in passes[0] for x in ch.sinr_db]
        cals = [ch.cal_s for chunks in passes for ch in chunks]
        metrics = {
            "setup_s": (statistics.median(ref for ref, _ in setups), "s"),
            "ops_per_s": (per_pass / busy, "ops/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p99_ms": (_p99(latencies), "ms"),
            "success_frac": ((attempted - failed) / attempted, "ratio"),
            "sinr_loss_db": (-statistics.fmean(sinr), "dB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail = {
            "setup_s_each": [wall for _, wall in setups],
            "wall_ops_per_s": per_pass / wall_busy,
            "cal_ms": [1e3 * min(cals), 1e3 * statistics.median(cals), 1e3 * max(cals)],
            "passes": len(passes),
            "timed_wall_s": elapsed,
            "ops_per_pass": sum(ch.attempted for ch in passes[0]),
            "latency_samples": len(latencies),
            "quality_digests": [ch.digest for ch in passes[0]],
            "problems": problems[:20],
            "problem_count": len(problems),
        }
        return _result(metrics, attempted, failed, problems), detail

    def trace(self) -> tuple[dict, dict, Tracer]:
        """Traced run: per-layer metrics over set-up plus one pass."""
        tracer = Tracer()
        with tracer:
            self.setup()
        warm = self.run_chunk(0, score=False)
        plain = self._pass(score=False)
        with tracer:
            traced = self._pass(score=False)
        problems = [p for ch in plain + traced for p in ch.problems]
        problems += _compare([warm], plain[:1], "warm-up", "untraced pass")
        problems += _compare(plain, traced, "untraced pass", "traced pass")
        plain_s = sum(ch.seconds for ch in plain)
        traced_s = sum(ch.seconds for ch in traced)
        stats = tracer.function_stats()
        detail = {
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "absent_hooks": tracer.absent,
            "functions": {name: stats[name] for name in sorted(stats)},
            "quality_digests": [ch.digest for ch in traced],
            "problems": problems[:20],
            "problem_count": len(problems),
        }
        attempted = sum(ch.attempted for ch in traced)
        failed = sum(ch.failed for ch in traced)
        result = _result(tracer.per_layer(traced_s - plain_s), attempted, failed, problems)
        return result, detail, tracer


def _compare(a: list[Chunk], b: list[Chunk], label_a: str, label_b: str) -> list[str]:
    """Determinism check: the same chunks must give byte-identical outputs."""
    return [f"determinism: chunk {c} outputs differ between {label_a} and {label_b}"
            for c, (x, y) in enumerate(zip(a, b)) if x.digest != y.digest]


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _result(metrics: dict, attempted: int, failed: int, problems: list[str]) -> dict:
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
