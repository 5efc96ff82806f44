"""The benchmark's three workloads.

A trial is one seeded instance carried through all of its work: every
program of a sweep trial, one robust solve, or one certificate draw.  A
round runs every trial of a workload once; a run repeats whole rounds on
the same inputs, so every round attempts the same operations.  binrec
receives only the inputs built here from the benchmark seed.

binrec functions are called through their modules (``recovery.solve``, not
a name imported from it) so that the tracer's replacements are seen.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os

import numpy as np

from binrec import analysis, ensembles, experiments, recovery, theory

import checks


def _biased(m: int, N: int, seed: int, mu=1.0, sigma=1.0, lam=1.0) -> ensembles.EnsembleConfig:
    return ensembles.EnsembleConfig(kind="biased", m=m, N=N, mu=mu, sigma=sigma,
                                    lambda_bound=lam, base_dist="rademacher_scaled", seed=seed)


def _same_float(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def _same_record(a, b) -> bool:
    """Field for field, NaN equal to NaN."""
    return all(x == y or (isinstance(x, float) and isinstance(y, float) and _same_float(x, y))
               for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)))


class DeskSweep:
    """The paper's own experiment on a sub-grid of the 10x10 desk preset,
    followed by one box_ls solve on a fixed instance.

    k/N = 0.1, 0.2 (sparse) and 0.8, 0.9 (saturated) against m/N = 0.3,
    0.4, 0.5: at this bias each of these k/N columns moves from no recovery
    to full recovery across the three m/N rows.

    The fixed instance does not depend on the seed.  x0 is the only point of
    the box with Ax = Ax0 there, yet box_ls stops at its default iteration
    cap with a wrong point, so that solve fails in every round.  Seeded
    box_ls solves stop at the cap now and then too; how many depends on the
    seed, so they are reported, not counted as failed, and left unchecked.
    """

    name = "desk-sweep"
    workers = 2
    K_FRACTIONS = [0.1, 0.2, 0.8, 0.9]
    M_FRACTIONS = [0.3, 0.4, 0.5]
    TRIALS = 8
    PROGRAMS = ("box_bp", "mibi_bp", "box_ls")
    # statuses that mean a program could not return a point for an instance
    # that is feasible by construction
    FAILED = ("infeasible", "unbounded")
    # the sweep's trial k=90, m=30, t=1 at master seed 2: its matrix and
    # support seeds as run_cell derives them
    FAULT_K, FAULT_M, FAULT_SEEDS = 90, 30, (9902588364639135395, 10022590802015758182)

    def __init__(self, seed: int, out_dir: str):
        self.config = dataclasses.replace(
            experiments.desk_scale_config(master_seed=seed),
            k_fractions=self.K_FRACTIONS, m_fractions=self.M_FRACTIONS,
            trials=self.TRIALS, programs=self.PROGRAMS)
        self.sweep_trials = len(self.K_FRACTIONS) * len(self.M_FRACTIONS) * self.TRIALS
        self.trials = self.sweep_trials + 1
        ens = dataclasses.replace(self.config.ensemble, m=self.FAULT_M, N=self.config.N,
                                  seed=self.FAULT_SEEDS[0])
        self.fault_A = ensembles.gen_matrix(ens)
        self.fault_x0 = ensembles.gen_sparse_binary(self.config.N, self.FAULT_K,
                                                    seed=self.FAULT_SEEDS[1]).dense()
        self.csv_path = os.path.join(out_dir, f"desk-sweep-seed{seed}.csv")
        self.capture_trials = True

    def warm_up(self) -> None:
        tiny = dataclasses.replace(self.config, N=20, k_fractions=[0.2],
                                   m_fractions=[0.5], trials=1)
        experiments.run_cell(tiny, 0, 0)

    def run_round(self, workers: int) -> tuple:
        """(sweep records, box_ls report on the fixed instance)."""
        os.environ["BINREC_THREADS"] = str(workers)
        diagram = experiments.run_phase_transition(self.config)
        experiments.write_csv(diagram, self.csv_path)
        fault = recovery.solve("box_ls", recovery.RecoveryProblem(
            self.fault_A, self.fault_A.entries @ self.fault_x0))
        return diagram.records, fault

    def same(self, a, b) -> bool:
        (ra, fa), (rb, fb) = a, b
        return (len(ra) == len(rb) and all(_same_record(x, y) for x, y in zip(ra, rb))
                and fa.solver_status == fb.solver_status and np.array_equal(fa.x_hat, fb.x_hat))

    def failed(self, outputs) -> int:
        records, fault = outputs
        bad = {(r.k, r.m, r.trial) for r in records
               if r.solver_status in self.FAILED or r.solver_status.startswith("error:")}
        return len(bad) + (not checks.recovered(fault.x_hat, self.fault_x0))

    def note(self, outputs) -> str:
        n = sum(r.program == "box_ls" and r.solver_status == "max_iter" for r in outputs[0])
        return (f"; box_ls stopped at max_iter on {n} of {self.sweep_trials} seeded trials "
                f"(not checked) and on the fixed instance: {outputs[1].solver_status}")

    def check(self, outputs, traced_outputs, tracer) -> list:
        problems = []
        records = outputs[0]
        if not self.same(outputs, traced_outputs):
            problems.append("pooled sweep records differ from the serial traced pass")
        with open(self.csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != len(records) or any(
                (int(row["k"]), int(row["m"]), int(row["trial"]), row["program"],
                 row["success"] == "1", row["solver_status"])
                != (r.k, r.m, r.trial, r.program, r.success, r.solver_status)
                or not _same_float(float(row["l2_error"]), r.l2_error)
                for row, r in zip(rows, records)):
            problems.append("sweep CSV does not hold the sweep's records")
        per_trial = len(self.PROGRAMS)
        if len(tracer.trials) * per_trial != len(records):
            return problems + [f"traced pass captured {len(tracer.trials)} trials, "
                               f"expected {len(records) // per_trial}"]
        for i, trial in enumerate(tracer.trials):
            recs = records[i * per_trial:(i + 1) * per_trial]
            where = f"k={recs[0].k} m={recs[0].m} trial={recs[0].trial}: "
            problems += [where + p for p in
                         checks.check_sweep_trial(trial.A, trial.x0, trial.reports, recs)]
        problems += [f"fixed box_ls instance: {p}" for p in
                     checks.check_box_ls_fault(self.fault_A.entries, self.fault_x0)]
        return problems


class NoisyRobust:
    """robust_box_bp with eta = eps on noise of norm eps, called serially.

    Cells (k/N, m/N) = (0.1, 0.5), (0.1, 0.8), (0.2, 0.8) and (0.8, 0.9):
    below m/N = 1, sparse and saturated.  Of the cells measured, these gave
    the least spread of solve time for their cost; near k/N = 0.5 one solve
    can take ten times as long as its neighbours.
    """

    name = "noisy-robust"
    workers = 1
    N = 100
    CELLS = [(0.1, 0.5), (0.1, 0.8), (0.2, 0.8), (0.8, 0.9)]
    TRIALS = 6
    EPS = 0.1

    def __init__(self, seed: int, out_dir: str):
        self.instances = []  # (A, b, x0)
        for c, (kf, mf) in enumerate(self.CELLS):
            k, m = round(kf * self.N), round(mf * self.N)
            for t in range(self.TRIALS):
                s = 3 * (1000 * seed + 100 * c + t)
                A = ensembles.gen_matrix(_biased(m, self.N, s))
                x0 = ensembles.gen_sparse_binary(self.N, k, seed=s + 1).dense()
                b = A.entries @ x0 + ensembles.gen_noise(m, self.EPS, seed=s + 2)
                self.instances.append((A, b, x0))
        self.trials = len(self.instances)
        self.capture_trials = False

    def warm_up(self) -> None:
        A = ensembles.gen_matrix(_biased(6, 10, 1))
        x0 = ensembles.gen_sparse_binary(10, 1, seed=2).dense()
        recovery.solve("robust_box_bp",
                       recovery.RecoveryProblem(A, A.entries @ x0 + 0.01, eta=0.1))

    def run_round(self, workers: int) -> list:
        return [recovery.solve("robust_box_bp", recovery.RecoveryProblem(A, b, eta=self.EPS))
                for A, b, _ in self.instances]

    def same(self, a, b) -> bool:
        return all(x.solver_status == y.solver_status and np.array_equal(x.x_hat, y.x_hat)
                   for x, y in zip(a, b))

    def _failures(self, reports) -> list:
        return [checks.robust_failure(A.entries, b, self.EPS, rep)
                for (A, b, _), rep in zip(self.instances, reports)]

    def note(self, outputs) -> str:
        return ""

    def failed(self, reports) -> int:
        return sum(f is not None for f in self._failures(reports))

    def check(self, reports, traced_reports, tracer) -> list:
        problems = []
        if traced_reports is not None and not self.same(reports, traced_reports):
            problems.append("traced pass returned other points than the untraced rounds")
        for i, ((A, b, x0), rep, why) in enumerate(zip(self.instances, reports,
                                                       self._failures(reports))):
            if why is None:
                problems += [f"solve {i}: {p}" for p in
                             checks.check_robust(A.entries, b, self.EPS, x0, rep)]
        return problems


class Certificate:
    """Criterion 7's Monte Carlo outside pytest: the explicit dual
    certificate at N=200, k=10, mu=sigma=Lambda=0.5 and the m at which
    theory.cert_success_rates predicts both rates reach 0.99."""

    name = "certificate"
    workers = 1
    N, K, MU, SIGMA, LAMBDA, EPS = 200, 10, 0.5, 0.5, 0.5, 0.01
    DRAWS = 8

    def __init__(self, seed: int, out_dir: str):
        p = theory.TheoryParams(N=self.N, k=self.K, m=1, mu=self.MU, sigma=self.SIGMA,
                                lambda_bound=self.LAMBDA, eps=self.EPS)
        self.m = theory.cert_success_rates(p)[2]
        self.verify_rate = theory.cert_success_rates(dataclasses.replace(p, m=self.m))[0]
        self.t = analysis.certificate_threshold(self.m, self.SIGMA, "lemma")
        rho = -self.SIGMA ** 2 / (4.0 * self.MU)
        self.norm_bound = theory.cert_norm_bound(self.m, self.K, rho, self.SIGMA,
                                                 self.LAMBDA)[0]
        self.draws = []  # (EnsembleConfig, J)
        for d in range(self.DRAWS):
            s = 2 * (1000 * seed + d)
            self.draws.append((
                _biased(self.m, self.N, s, self.MU, self.SIGMA, self.LAMBDA),
                ensembles.gen_sparse_binary(self.N, self.K, seed=s + 1).support))
        self.trials = self.DRAWS
        self.capture_trials = False

    def _draw(self, config, J, t, norm_bound):
        A = ensembles.gen_matrix(config).entries
        nu = analysis.build_dual_certificate(A - self.MU, self.MU, self.SIGMA, J)
        # nu is positive on J; recovering 1_J needs the negated vector
        verified, margins = analysis.verify_certificate(A, -nu, J, t)
        return nu, margins, verified, float(nu @ nu) <= norm_bound

    def warm_up(self) -> None:
        config, J = self.draws[0]
        self._draw(dataclasses.replace(config, m=2000), J, 0.0, 0.0)

    def run_round(self, workers: int) -> list:
        return [self._draw(config, J, self.t, self.norm_bound) for config, J in self.draws]

    def same(self, a, b) -> bool:
        return all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
                   and x[2:] == y[2:] for x, y in zip(a, b))

    def note(self, outputs) -> str:
        return ""

    def failed(self, outputs) -> int:
        return 0

    def check(self, outputs, traced_outputs, tracer) -> list:
        problems = []
        if traced_outputs is not None and not self.same(outputs, traced_outputs):
            problems.append("traced pass returned other certificates than the untraced rounds")
        for d, ((config, J), (nu, margins, verified, norm_ok)) in enumerate(
                zip(self.draws, outputs)):
            A = ensembles.gen_matrix(config).entries
            A0 = (ensembles.gen_matrix(dataclasses.replace(config, mu=0.0)).entries
                  if d == 0 else None)
            problems += [f"draw {d}: {p}" for p in checks.check_certificate(
                A, A0, self.MU, self.SIGMA, J, nu, margins, verified, norm_ok)]
            del A, A0
        problems += checks.binomial_problems(sum(o[2] for o in outputs), len(outputs),
                                             self.verify_rate, "verified certificates")
        return problems


WORKLOADS = {w.name: w for w in (DeskSweep, NoisyRobust, Certificate)}
