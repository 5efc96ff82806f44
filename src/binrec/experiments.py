"""Monte-Carlo phase-transition harness.

Sweeps a (k/N, m/N) grid, runs the requested recovery programs on one
problem per freshly drawn trial, and keeps one record per (trial, program); a
cell's success rate is counted from its records.  Every trial seeds its own
counter-based generator from a mix of the master seed and the (cell_i,
cell_j, trial) coordinates, so results are identical under any execution
order or degree of parallelism.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensembles import (EnsembleConfig, _thread_cap, gen_matrix, gen_noise,
                        gen_sparse_binary)
from .optim import SolverFailure
from .recovery import (DEFAULT_SUCCESS_TOL, RecoveryProblem, recovery_success,
                       solve)

HARNESS_PROGRAMS = ("box_bp", "mibi_bp", "box_ls", "robust_box_bp")

CSV_HEADER = "N,m,k,trial,program,ensemble,mu,seed,success,both,neither,l2_error,solver_status"


def _mix(*parts: int) -> int:
    """splitmix64 over the concatenated parts; collision-resistant enough
    that distinct (master, i, j, t) tuples get independent Philox keys."""
    h = 0
    for p in parts:
        h = (h + int(p) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = h ^ (h >> 31)
    return h


def trial_seed(master_seed: int, cell_i: int, cell_j: int, t: int) -> int:
    return _mix(master_seed, cell_i, cell_j, t)


@dataclass
class ExperimentConfig:
    N: int
    k_fractions: list
    m_fractions: list
    trials: int
    ensemble: EnsembleConfig
    programs: tuple = ("box_bp",)
    success_tol: float = DEFAULT_SUCCESS_TOL
    master_seed: int = 0
    record_simultaneous: bool = False
    noise_eps: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        for fr in (self.k_fractions, self.m_fractions):
            if not fr:
                raise ValueError("grid fractions must not be empty")
            if any(not 0 < f <= 1 for f in fr):
                raise ValueError("grid fractions must lie in (0, 1]")
            if any(b <= a for a, b in zip(fr, fr[1:])):
                raise ValueError("grid fractions must be strictly increasing")
        # sweep_trial's m, at least 1 exactly when N is (every f lies in (0, 1]);
        # a cell with no measurement would fail only when the sweep reached it
        if any(int(round(f * self.N)) < 1 for f in self.m_fractions):
            raise ValueError(f"an m fraction gives no measurement at N = {self.N}")
        if self.noise_eps is not None and not 0 <= self.noise_eps < np.inf:
            raise ValueError("noise_eps must be finite and nonnegative")
        if not 0 < self.success_tol < np.inf:
            raise ValueError("success_tol must be positive and finite")
        bad = set(self.programs) - set(HARNESS_PROGRAMS)
        if bad:
            raise ValueError(f"unsupported programs: {sorted(bad)}")
        if len(set(self.programs)) != len(self.programs):
            raise ValueError(f"programs must not repeat: {list(self.programs)}")


@dataclass
class TrialRecord:
    N: int
    m: int
    k: int
    trial: int
    program: str
    ensemble: str
    mu: float
    seed: int
    success: bool
    both: bool | None
    neither: bool | None
    l2_error: float
    solver_status: str


@dataclass
class PhaseDiagram:
    config: ExperimentConfig
    records: list  # TrialRecord, in grid-then-trial order

    def rate(self, k_fraction: float, m_fraction: float, program: str) -> float:
        """Share of the cell's trials that ``program`` recovered.  The cell's
        records are found by grid position: distinct fractions can round to
        the same (k, m).  A program the sweep did not run is a ValueError."""
        cfg = self.config
        if program not in cfg.programs:
            raise ValueError(f"program {program!r} not present in this diagram")
        cell = (cfg.k_fractions.index(k_fraction) * len(cfg.m_fractions)
                + cfg.m_fractions.index(m_fraction))
        per_cell = cfg.trials * len(cfg.programs)
        expected = len(cfg.k_fractions) * len(cfg.m_fractions) * per_cell
        if len(self.records) != expected:
            raise ValueError(f"the config's grid holds {expected} records, "
                             f"not {len(self.records)}")
        cell_records = self.records[cell * per_cell:(cell + 1) * per_cell]
        return sum(r.success for r in cell_records if r.program == program) / cfg.trials


def _solve_one(program, problem, tol_x0, x0_dense):
    """Run one program on the trial's problem, never raising; returns
    (success, error, status)."""
    try:
        rep = solve(program, problem)
    except (SolverFailure, ValueError) as exc:
        return False, float("nan"), f"error:{type(exc).__name__}"
    if rep.x_hat is None:
        return False, float("nan"), rep.solver_status
    err = float(np.linalg.norm(rep.x_hat - x0_dense))
    return recovery_success(rep.x_hat, x0_dense, tol_x0), err, rep.solver_status


def sweep_trial(config: ExperimentConfig, cell_i: int, cell_j: int, t: int) -> tuple:
    """(seed, A, x0, b) of trial t in grid cell (cell_i, cell_j): the trial's
    seed, matrix, signal and measurements, noisy when ``noise_eps`` is set.
    This is the one place that derives a trial's seeds and draws it."""
    N = config.N
    k = int(round(config.k_fractions[cell_i] * N))
    m = int(round(config.m_fractions[cell_j] * N))
    seed = trial_seed(config.master_seed, cell_i, cell_j, t)
    A = gen_matrix(dataclasses.replace(config.ensemble, m=m, N=N, seed=_mix(seed, 0)))
    x0 = gen_sparse_binary(N, k, seed=_mix(seed, 1))
    b = A.entries @ x0.dense()
    if config.noise_eps:
        b = b + gen_noise(m, config.noise_eps, seed=_mix(seed, 2))
    return seed, A, x0, b


def run_cell(config: ExperimentConfig, cell_i: int, cell_j: int) -> list:
    """All trial records of one grid cell, independent of every other cell.

    A trial is one ``RecoveryProblem`` with noise level ``noise_eps`` (0 when
    unset), so its programs share box-BP's LPs.  With ``record_simultaneous``
    the mirrored signal 1 - x0 is a second problem, measured with the
    trial's own noise."""
    eta = config.noise_eps if config.noise_eps is not None else 0.0
    ens = config.ensemble
    records = []
    for t in range(config.trials):
        seed, A, x0, b = sweep_trial(config, cell_i, cell_j, t)
        x0d = x0.dense()
        problem = RecoveryProblem(A, b, eta=eta)
        if config.record_simultaneous:
            b_mirror = A.entries @ (1.0 - x0d)
            if config.noise_eps:
                b_mirror += b - A.entries @ x0d
            mirror = RecoveryProblem(A, b_mirror, eta=eta)
        for program in config.programs:
            ok, err, status = _solve_one(program, problem, config.success_tol, x0d)
            both = neither = None
            if config.record_simultaneous:
                ok2, _, _ = _solve_one(program, mirror, config.success_tol, 1.0 - x0d)
                both = ok and ok2
                neither = not ok and not ok2
            records.append(TrialRecord(config.N, A.m, x0.k, t, program, ens.kind, ens.mu,
                                       seed, ok, both, neither, err, status))
    return records


def _worker(args):
    return run_cell(*args)


def _one_fill_thread() -> None:
    # a pool worker fills its matrices on one thread; its BLAS threads are
    # the parent's, which OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
    # MKL_NUM_THREADS set only before Python starts
    os.environ["BINREC_THREADS"] = "1"


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_one_fill_thread)


def _map_cells(fn, config: ExperimentConfig) -> list:
    """fn((config, i, j)) for every grid cell (i, j), in row-major order,
    on a pool of ``_thread_cap()`` worker processes, or in this process
    when that is one.  fn must be picklable."""
    tasks = [(config, i, j)
             for i in range(len(config.k_fractions))
             for j in range(len(config.m_fractions))]
    workers = min(_thread_cap(), len(tasks))
    if workers > 1:
        with _worker_pool(workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def run_phase_transition(config: ExperimentConfig) -> PhaseDiagram:
    per_cell = _map_cells(_worker, config)
    return PhaseDiagram(config, [r for cell in per_cell for r in cell])


# --- CSV ------------------------------------------------------------------

def _fmt_bool(v) -> str:
    return "" if v is None else str(int(v))


def write_csv(diagram: PhaseDiagram, path: str) -> None:
    """One row per (cell, program, trial), plus a sidecar .config.json echo."""
    try:
        with open(path, "w") as f:
            f.write(CSV_HEADER + "\n")
            for r in diagram.records:
                f.write(f"{r.N},{r.m},{r.k},{r.trial},{r.program},{r.ensemble},"
                        f"{r.mu:.17g},{r.seed},{int(r.success)},{_fmt_bool(r.both)},"
                        f"{_fmt_bool(r.neither)},{r.l2_error:.17g},{r.solver_status}\n")
        cfg = dataclasses.asdict(diagram.config)
        cfg["programs"] = list(cfg["programs"])
        with open(path + ".config.json", "w") as f:
            json.dump(cfg, f, indent=2)
            f.write("\n")
    except OSError as exc:
        raise OSError(f"writing phase-transition CSV to {path!r}: {exc}") from exc


def read_csv(path: str) -> list:
    """Parse back the rows written by write_csv, as TrialRecord objects."""
    records = []
    try:
        with open(path) as f:
            header = f.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header in {path!r}: {header}")
            for line in f:
                c = line.rstrip("\n").split(",")
                if len(c) != 13:
                    raise ValueError(f"malformed row in {path!r}: {line!r}")
                records.append(TrialRecord(
                    int(c[0]), int(c[1]), int(c[2]), int(c[3]), c[4], c[5],
                    float(c[6]), int(c[7]), bool(int(c[8])),
                    None if c[9] == "" else bool(int(c[9])),
                    None if c[10] == "" else bool(int(c[10])),
                    float(c[11]), c[12]))
    except OSError as exc:
        raise OSError(f"reading phase-transition CSV from {path!r}: {exc}") from exc
    return records


# --- SVG heatmap ----------------------------------------------------------

def render_heatmap(diagram: PhaseDiagram, program: str, path: str) -> None:
    """Standalone SVG: one grayscale rect per cell (white = rate 1, black = 0),
    k/N on the horizontal axis, m/N on the vertical axis, plus a legend."""
    cell_px = 24
    kf = diagram.config.k_fractions
    mf = diagram.config.m_fractions
    nx, ny = len(kf), len(mf)
    margin_l, margin_b, margin_t, margin_r = 60, 50, 20, 90
    w = margin_l + nx * cell_px + margin_r
    h = margin_t + ny * cell_px + margin_b
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    for j, m_frac in enumerate(mf):
        # larger m drawn higher up
        y = margin_t + (ny - 1 - j) * cell_px
        for i, k_frac in enumerate(kf):
            rate = diagram.rate(k_frac, m_frac, program)
            shade = int(round(255 * rate))
            fill = f"rgb({shade},{shade},{shade})"
            x = margin_l + i * cell_px
            parts.append(f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                         f'fill="{fill}" stroke="gray" stroke-width="0.5"/>')
    ax_y = margin_t + ny * cell_px
    parts.append(f'<text x="{margin_l + nx * cell_px / 2:.0f}" y="{ax_y + 35}" '
                 f'text-anchor="middle" font-size="13">k/N</text>')
    parts.append(f'<text x="15" y="{margin_t + ny * cell_px / 2:.0f}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 15 {margin_t + ny * cell_px / 2:.0f})">m/N</text>')
    for frac, i in ((kf[0], 0), (kf[-1], nx - 1)):
        x = margin_l + i * cell_px + cell_px / 2
        parts.append(f'<text x="{x:.0f}" y="{ax_y + 15}" text-anchor="middle" '
                     f'font-size="10">{frac:g}</text>')
    for frac, j in ((mf[0], 0), (mf[-1], ny - 1)):
        y = margin_t + (ny - 1 - j) * cell_px + cell_px / 2
        parts.append(f'<text x="{margin_l - 8}" y="{y:.0f}" text-anchor="end" '
                     f'font-size="10" dominant-baseline="middle">{frac:g}</text>')
    # legend: vertical grayscale ramp with endpoint labels
    lx = margin_l + nx * cell_px + 20
    steps = 32
    lh = min(ny * cell_px, 160)
    for s in range(steps):
        shade = int(round(255 * (1 - s / (steps - 1))))
        y = margin_t + s * lh / steps
        parts.append(f'<rect x="{lx}" y="{y:.2f}" width="14" height="{lh / steps + 0.5:.2f}" '
                     f'fill="rgb({shade},{shade},{shade})"/>')
    parts.append(f'<rect x="{lx}" y="{margin_t}" width="14" height="{lh:.0f}" '
                 f'fill="none" stroke="black" stroke-width="0.5"/>')
    parts.append(f'<text x="{lx + 20}" y="{margin_t + 5}" font-size="10">rate 1</text>')
    parts.append(f'<text x="{lx + 20}" y="{margin_t + lh:.0f}" font-size="10">rate 0</text>')
    parts.append(f'<text x="{lx}" y="{margin_t - 6}" font-size="11">{program}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w") as f:
            f.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"writing heatmap SVG to {path!r}: {exc}") from exc


# --- sweep configs --------------------------------------------------------

def grid_config(N: int, grid_step: float, *, trials: int = 25, kind: str = "biased",
                mu: float | None = None, sigma: float | None = None,
                lambda_bound: float | None = None, base_dist: str | None = None,
                **options) -> ExperimentConfig:
    """The sweep at signal length N over the fractions grid_step, 2 grid_step,
    ..., 1 on both axes, with ``trials`` trials per cell.  The ensemble
    parameters belong to the biased kind, where they default to mu = sigma
    = lambda_bound = 1 and the Rademacher base; every other kind draws with
    its own defaults and rejects them.  ``options`` are the remaining
    ``ExperimentConfig`` fields.  A step with round(1/step) > N is
    rejected: below 1/N the grid only repeats (k, m) cells.

    The paper's protocol is ``grid_config(500, 0.01)``, i.e.
    ``binrec phase --N 500 --grid-step 0.01``: unnormalized biased Rademacher
    matrices (entries in {0, 2}), 25 trials on a 100x100 grid.  Expect a
    multi-hour run; CI uses ``desk_scale_config`` instead."""
    if not 0 < grid_step <= 1:
        raise ValueError(f"grid step must lie in (0, 1], not {grid_step}")
    # capped before rounding, so that no step asks for more than N + 1 cells
    steps = round(min(1.0 / grid_step, N + 1))
    if steps > N:
        raise ValueError(f"grid step {grid_step} asks for more than N = {N} fractions "
                         "per axis, which only repeat (k, m) cells")
    grid = [round(grid_step * i, 10) for i in range(1, steps + 1)]
    params = {"mu": mu, "sigma": sigma, "lambda_bound": lambda_bound, "base_dist": base_dist}
    given = {name: v for name, v in params.items() if v is not None}
    if kind == "biased":
        given = {"mu": 1.0, "sigma": 1.0, "lambda_bound": 1.0, "base_dist": "rademacher_scaled",
                 **given}
    elif given:
        raise ValueError(f"{', '.join(given)} apply only to the biased kind, not {kind!r}")
    # m and N are placeholders: sweep_trial sets them per trial
    ens = EnsembleConfig(kind=kind, m=1, N=1, **given)
    return ExperimentConfig(N=N, k_fractions=grid, m_fractions=grid, trials=trials,
                            ensemble=ens, **options)


def desk_scale_config(master_seed: int = 0, kind: str = "biased") -> ExperimentConfig:
    """CI default: N=100 on a 0.1-spaced 10x10 grid with 25 trials."""
    return grid_config(100, 0.1, kind=kind, master_seed=master_seed)
