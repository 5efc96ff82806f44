"""Command-line front end.

Every subcommand is a thin wrapper over the library with the same seeds, so
scripted runs and direct library calls produce identical numbers.  Exit
codes: 0 success, 1 domain/configuration error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, experiments, recovery, theory
from .ensembles import (BASE_DISTS, EnsembleConfig, MATRIX_KINDS, gen_matrix,
                        gen_noise, gen_sparse_binary, read_matrix, read_signal,
                        write_matrix, write_signal)
from .optim import SolverFailure

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER = 0, 1, 2

PROGRAM_FLAGS = {
    "box-bp": "box_bp",
    "mirror-bp": "box_bp_mirror",
    "mibi-bp": "mibi_bp",
    "robust-bp": "robust_box_bp",
    "box-ls": "box_ls",
}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    else:
        print(text)


def _parse_support(spec: str) -> list:
    if not spec:
        return []
    return [int(s) for s in spec.split(",")]


def _load_matrix(path: str):
    with open(path) as f:
        return read_matrix(f)


def cmd_gen_matrix(args) -> int:
    cfg = EnsembleConfig(kind=args.kind, m=args.m, N=args.N, mu=args.mu,
                         base_dist=args.base_dist, sigma=args.sigma,
                         lambda_bound=args.lambda_bound, seed=args.seed,
                         normalized=args.normalized)
    A = gen_matrix(cfg)
    with open(args.out, "w") as f:
        write_matrix(A, f)
    _emit(args, {"kind": args.kind, "m": args.m, "N": args.N, "path": args.out},
          f"wrote {args.m}x{args.N} {args.kind} matrix to {args.out}")
    return EXIT_OK


def cmd_gen_signal(args) -> int:
    x = gen_sparse_binary(args.N, args.k, seed=args.seed)
    with open(args.out, "w") as f:
        write_signal(x, f)
    _emit(args, {"N": args.N, "k": args.k, "path": args.out},
          f"wrote {args.k}-sparse binary signal of length {args.N} to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    recovery.check_success_tol(args.success_tol)
    if args.noise_eps and not args.signal:
        raise ValueError("--noise-eps adds noise to A x0 and needs --signal; "
                         "--measurements gives b as it is")
    A = _load_matrix(args.matrix)
    if args.signal:
        with open(args.signal) as f:
            x0 = read_signal(f)
        if x0.N != A.N:
            raise ValueError(f"signal length {x0.N} != matrix columns {A.N}")
        b = A.entries @ x0.dense()
        if args.noise_eps:
            b = b + gen_noise(A.m, args.noise_eps, seed=args.noise_seed)
    else:
        b = np.loadtxt(args.measurements)
        x0 = None
    program = PROGRAM_FLAGS[args.program]
    rep = recovery.solve(program, recovery.RecoveryProblem(A, b, eta=args.eta))
    if rep.x_hat is None:
        _emit(args, {"program": program, "status": rep.solver_status},
              f"{program}: {rep.solver_status}")
        return EXIT_SOLVER
    payload = {"program": program, "status": rep.solver_status,
               "objective": rep.objective,
               "x_hat": [float(v) for v in rep.x_hat]}
    text = f"{program}: {rep.solver_status}, objective {rep.objective:.12g}"
    if rep.branch_chosen:
        payload["branch"] = rep.branch_chosen
        text += f", branch {rep.branch_chosen}"
    if rep.optimality_gap is not None:
        payload["optimality_gap"] = rep.optimality_gap
        text += f", optimality gap {rep.optimality_gap:.3g}"
    if x0 is not None:
        ok = recovery.recovery_success(rep.x_hat, x0, args.success_tol)
        err = float(np.linalg.norm(rep.x_hat - x0.dense()))
        payload.update(success=ok, l2_error=err)
        text += f", l2 error {err:.6g}, success {ok}"
    if args.out:
        np.savetxt(args.out, rep.x_hat, fmt="%.17g")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.alt_support and args.condition != "newnsp":
        raise ValueError(f"--alt-support applies only to --condition newnsp, "
                         f"not {args.condition}")
    A = _load_matrix(args.matrix)
    K = _parse_support(args.support)
    if args.condition == "hkplus":
        res = analysis.check_hkplus_dual(A, K)
    else:
        cone = analysis.ConeSpec.sign_cone(A.N, K,
                                           sum_nonpos=args.condition == "bnsp")
        if args.condition == "newnsp":
            S = _parse_support(args.alt_support) if args.alt_support else K
            # the sign cone of S's complement
            cone = cone.intersect(analysis.ConeSpec(-analysis.ConeSpec.sign_cone(A.N, S).signs))
        res = analysis.check_kernel_cone(A, cone)
    payload = {"condition": args.condition, "verdict": res.verdict,
               "margin": res.margin}
    if res.witness is not None:
        payload["witness"] = [float(v) for v in res.witness]
    _emit(args, payload, f"{args.condition}: {res.verdict}")
    return EXIT_OK if res.holds else EXIT_CONFIG if args.strict else EXIT_OK


def cmd_certificate(args) -> int:
    cfg = EnsembleConfig(kind="biased", m=args.m, N=args.N, mu=args.mu,
                         base_dist=args.base_dist, sigma=args.sigma,
                         lambda_bound=args.lambda_bound, seed=args.seed)
    A = gen_matrix(cfg)
    if args.support:
        J = _parse_support(args.support)
    else:
        J = list(gen_sparse_binary(args.N, args.k, seed=args.seed + 1).support)
    D = A.entries - args.mu
    rho = analysis.certificate_offset(args.mu, args.sigma) if args.rho is None else args.rho
    nu = analysis.build_dual_certificate(D, args.mu, args.sigma, J, rho_override=rho)
    t = analysis.certificate_threshold(args.m, args.sigma, args.variant)
    # the built certificate is positive on J; recovery of 1_J needs the sign flipped
    ok, margins = analysis.verify_certificate(A, -nu, J, t)
    nsq = float(nu @ nu)
    stated, proof = theory.cert_norm_bound(args.m, len(J), rho,
                                           args.sigma, args.lambda_bound)
    payload = {"verified": ok, "threshold": t, "min_margin": float(np.min(margins)),
               "norm_sq": nsq, "norm_bound_stated": stated, "norm_bound_proof": proof}
    _emit(args, payload,
          f"certificate verified: {ok} (t={t:.6g}, min margin {np.min(margins):.6g}); "
          f"|nu|^2 = {nsq:.6g} vs bounds {stated:.6g} (stated) / {proof:.6g} (proof)")
    return EXIT_OK


def cmd_theory(args) -> int:
    f = args.formula
    if args.variant is not None and f not in ("cert-fail", "largern2"):
        raise ValueError(f"--variant applies only to the cert-fail and largern2 formulas, "
                         f"not {f}")
    if f == "delta-bin":
        val = theory.delta_bin(args.k, args.N)
    elif f == "pij":
        val = theory.face_survival_prob(args.i, args.j)
    elif f == "mibi-bound":
        val = theory.mibi_sample_bound(args.k, args.N, args.eps)
    else:
        p = theory.TheoryParams(N=args.N, k=args.k, m=args.m, mu=args.mu,
                                sigma=args.sigma, lambda_bound=args.lambda_bound,
                                eps=args.eps, C=args.C)
        if f == "biased-bound":
            val = theory.biased_sample_bound(p)
        elif f == "cert-fail":
            val = theory.cert_failure_prob(p, args.variant or "combined")
        elif f == "noise-bound":
            val = theory.noise_error_bound(p)
        else:
            val = theory.largerN2_success_prob(args.N, args.m,
                                               args.variant or "density")
    _emit(args, {"formula": f, "value": val}, f"{val:.12g}")
    return EXIT_OK


def cmd_phase(args) -> int:
    cfg = experiments.grid_config(
        args.N, args.grid_step, trials=args.trials, kind=args.kind, mu=args.mu,
        sigma=args.sigma, lambda_bound=args.lambda_bound, base_dist=args.base_dist,
        programs=tuple(args.programs.split(",")), success_tol=args.success_tol,
        master_seed=args.master_seed, record_simultaneous=args.record_simultaneous,
        noise_eps=args.noise_eps)
    cells = len(cfg.k_fractions) * len(cfg.m_fractions)
    plan = {"N": cfg.N, "grid": f"{len(cfg.k_fractions)}x{len(cfg.m_fractions)}",
            "trials": cfg.trials, "programs": list(cfg.programs),
            "total_solves": cells * cfg.trials * len(cfg.programs)
            * (2 if cfg.record_simultaneous else 1)}
    if args.dry_run:
        _emit(args, {"plan": plan},
              f"plan: N={cfg.N}, {plan['grid']} grid, {cfg.trials} trials, "
              f"programs {','.join(cfg.programs)}, {plan['total_solves']} solves")
        return EXIT_OK
    diagram = experiments.run_phase_transition(cfg)
    experiments.write_csv(diagram, args.out_csv)
    outputs = {"csv": args.out_csv}
    if args.out_svg:
        experiments.render_heatmap(diagram, cfg.programs[0], args.out_svg)
        outputs["svg"] = args.out_svg
    _emit(args, {"plan": plan, "outputs": outputs},
          f"wrote {args.out_csv}" + (f" and {args.out_svg}" if args.out_svg else ""))
    return EXIT_OK


def _add_ensemble_flags(p, with_kind=True):
    if with_kind:
        p.add_argument("--kind", choices=MATRIX_KINDS, default="gaussian")
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--lambda-bound", type=float, default=0.5)
    p.add_argument("--base-dist", choices=BASE_DISTS, default="rademacher_scaled")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="binrec",
                                 description="binary signal recovery toolbox")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    # also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # --json from being clobbered by the subparser default
    jp = argparse.ArgumentParser(add_help=False)
    jp.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[jp], **kw))

    p = sub.add_parser("gen-matrix", help="draw and store a measurement matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_ensemble_flags(p)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_matrix)

    p = sub.add_parser("gen-signal", help="draw and store a sparse binary signal")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_signal)

    p = sub.add_parser("solve", help="run a recovery program")
    p.add_argument("--program", choices=sorted(PROGRAM_FLAGS), required=True)
    p.add_argument("--matrix", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--signal", help="ground-truth signal file; b = A x0")
    g.add_argument("--measurements", help="plain text file with b")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--noise-eps", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--success-tol", type=float, default=recovery.DEFAULT_SUCCESS_TOL)
    p.add_argument("--out", help="write the solution vector here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="kernel-cone recovery conditions")
    p.add_argument("--condition", choices=("kernel-hk", "bnsp", "hkplus", "newnsp"),
                   required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--support", default="", help="comma-separated indices of K")
    p.add_argument("--alt-support", default="",
                   help="indices of S for newnsp; without it S = K, the cone is {0} "
                        "and the condition holds trivially")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the condition fails")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("certificate", help="build and verify a dual certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--support", default="", help="explicit J; overrides --k")
    _add_ensemble_flags(p, with_kind=False)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--variant", choices=("lemma", "proof_off_support", "proof_on_support"),
                   default="lemma")
    p.set_defaults(fn=cmd_certificate)

    p = sub.add_parser("theory", help="closed-form theory calculators")
    p.add_argument("--formula", required=True,
                   choices=("delta-bin", "pij", "mibi-bound", "biased-bound",
                            "cert-fail", "noise-bound", "largern2"))
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--lambda-bound", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--variant", default=None)
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("phase", help="phase-transition sweep with CSV/SVG output")
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--kind", choices=MATRIX_KINDS, default="biased")
    # the biased kind's parameters; grid_config gives their defaults
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--lambda-bound", type=float, default=None)
    p.add_argument("--base-dist", choices=BASE_DISTS, default=None)
    p.add_argument("--programs", default="box_bp")
    p.add_argument("--success-tol", type=float, default=recovery.DEFAULT_SUCCESS_TOL)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--record-simultaneous", action="store_true")
    p.add_argument("--noise-eps", type=float, default=None)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out-csv", default="phase.csv")
    p.add_argument("--out-svg", default=None)
    p.set_defaults(fn=cmd_phase)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
