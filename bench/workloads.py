"""The four benchmark workloads.

Each workload is one closed loop: a single process runs one pass after
another, one operation at a time.  A pass builds its problems, sets up H_A
and solves; it records one `Solve` per solver call and checks its outputs
inside `Pass.verifying()`, which the runner leaves out of the pass time.

All library calls go through module attributes (`mesh.build_mesh`,
`solvers.pl_solve`, `cli.main`, ...) so that the wrappers installed by
`tracing.installed` see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os

import numpy as np

from saddleprec import assembly, cli, mesh, precond, solvers

from . import tracing

DELTA = 1e-6
# ||A_eps z - F|| / ||F|| of a ladder-exact solution.  The solvers stop on
# the H-weighted (K or S_eps) norm at DELTA; at M = 512 the Euclidean
# residual of that stop measures about 1e-4.
RESIDUAL_BOUND = 1e-3
# relative 2-norm gap between the PU and PL primal solutions (measured
# about 1e-8)
AGREEMENT_BOUND = 1e-5

# the cost subcommand's shipped PU H_A and its default seed, which gives
# the initial guess.  With that guess PU raises OperatorContractError at
# M = 256 for every eps draw recorded (seeds 0-31); with other guesses it
# converges about one time in four, so the guess stays fixed to keep the
# breakdown in every run.
COST_PU_HA = {"steps": 12, "base": "ilu", "drop_tol": 1e-2,
              "fill_factor": 8.0}
COST_SEED = 0

SOLVER_ERRORS = (precond.SolverBreakdownError, precond.ContractViolationError,
                 solvers.MaxIterationsError, solvers.OperatorContractError)


@dataclasses.dataclass
class Solve:
    """What one solver call did: its counts, or the error it raised."""

    instance: str
    method: str
    iterations: int | None = None
    a_applies: int | None = None
    ha_applies: int | None = None
    error: str | None = None

    def record(self) -> dict:
        """Deterministic part, compared against the baseline count record."""
        out = {"instance": self.instance, "method": self.method}
        if self.error is None:
            out.update(iterations=self.iterations, a_applies=self.a_applies,
                       ha_applies=self.ha_applies)
        else:
            out["error"] = self.error.split(":", 1)[0]
        return out


class Pass:
    """State of one pass: the solves made and the correctness findings."""

    def __init__(self, seed: int, recorder: tracing.Recorder, out_dir: str):
        self.seed = seed
        self.recorder = recorder
        self.out_dir = out_dir
        self.solves: list[Solve] = []
        self.wrong: list[str] = []
        self.outputs: dict = {}

    def verifying(self):
        """Span whose time the runner subtracts from the pass time."""
        return self.recorder.span("verify", tracing.VERIFY)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong.append(message)

    def solve(self, instance: str, method: str, *args, **kwargs):
        """Run one solver call; a solver error is counted, not raised."""
        fn = getattr(solvers, tracing.SOLVERS[method])
        try:
            report = fn(*args, delta=DELTA, **kwargs)
        except SOLVER_ERRORS as exc:
            self.solves.append(Solve(instance, method,
                                     error=f"{type(exc).__name__}: {exc}"))
            return None
        self.solves.append(Solve(instance, method, report.iterations,
                                 report.a_applies, report.ha_applies))
        with self.verifying():
            self.check(report.converged and report.final_ratio <= DELTA,
                       f"{instance} {method}: converged={report.converged} "
                       f"ratio={report.final_ratio:.3e} > {DELTA:g}")
        return report


# ---------------------------------------------------------------------------
# workloads

def ladder_exact(p: Pass, Ms=(128, 256, 512)) -> None:
    """Exact LU H_A up the mesh ladder; PU and PL share a build and an LU."""
    for M in Ms:
        instance = f"M={M}"
        mesh_ = mesh.build_mesh(M)
        layout = mesh.assign_epsilon(mesh.place_periodic(mesh_, 2), "random",
                                     eps_min=1e-6, eps_max=1e-2, seed=p.seed)
        ordering, A, blocks, op = assembly.build_problem(mesh_, layout)
        F = np.zeros(op.size)
        F[:op.N] = assembly.assemble_load(mesh_, 1.0, ordering=ordering)
        H = precond.build_block_preconditioner(A, blocks, "exact")
        reports = {m: p.solve(instance, m, op, H, F=F) for m in ("pu", "pl")}
        del H
        with p.verifying():
            K = op.to_sparse()
            for m, rep in reports.items():
                if rep is None:
                    continue
                z = np.concatenate((rep.u, rep.p))
                res = np.linalg.norm(K @ z - F) / np.linalg.norm(F)
                p.check(res <= RESIDUAL_BOUND,
                        f"{instance} {m}: relative residual {res:.3e} > "
                        f"{RESIDUAL_BOUND:g}")
            if all(rep is not None for rep in reports.values()):
                u_pu, u_pl = reports["pu"].u, reports["pl"].u
                gap = np.linalg.norm(u_pu - u_pl) / np.linalg.norm(u_pl)
                p.check(gap <= AGREEMENT_BOUND,
                        f"{instance}: PU and PL u differ by {gap:.3e} > "
                        f"{AGREEMENT_BOUND:g}")


CONTRAST_CONFIG = """\
method = pu, pl, pcgk
M = {M}
k = 2
layout = periodic, random
removal = {removal}
eps_mode = uniform
eps_min = 1e-2, 1e-4, 1e-6
delta = {delta:g}
"""


def contrast_sweep(p: Pass, M=128, removal=512) -> None:
    """The `saddleprec solve` sweep, run in-process through cli.main."""
    config = os.path.join(p.out_dir, "contrast_sweep.cfg")
    csv_path = os.path.join(p.out_dir, "solve.csv")
    with p.verifying():
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CONTRAST_CONFIG.format(M=M, removal=removal, delta=DELTA))
        if os.path.exists(csv_path):
            os.remove(csv_path)
    first = len(p.recorder.spans)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["solve", "--config", config, "--out", p.out_dir,
                         "--threads", "1", "--seed", str(p.seed)])
    with p.verifying():
        calls = [s for s in p.recorder.spans[first:]
                 if s.category == tracing.SOLVE]
        rows = []
        if code == 0:
            with open(csv_path, "rb") as fh:
                data = fh.read()
            lines = data.decode("utf-8").splitlines()
            header = lines[1].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
            p.outputs["solve_csv_sha256"] = hashlib.sha256(data).hexdigest()
            p.check(len(rows) == len(calls),
                    f"solve.csv has {len(rows)} rows for {len(calls)} solves")
        for i, span in enumerate(calls):
            method = span.name.split(".", 1)[1]
            if i < len(rows):
                row = rows[i]
                instance = (f"{row['method']} {row['layout']} "
                            f"eps_min={row['eps_min']}")
                ratio = float(row["final_ratio"])
                p.check(row["converged"] == "True"
                        and ratio <= float(row["delta"]),
                        f"{instance}: converged={row['converged']} "
                        f"ratio={row['final_ratio']}")
            else:
                instance = f"call {i}"
            if "error" in span.attrs:
                p.solves.append(Solve(instance, method,
                                      error=f"{span.attrs['error']} "
                                            f"({stderr.getvalue().strip()})"))
            else:
                p.solves.append(Solve(instance, method,
                                      span.attrs["iterations"],
                                      span.attrs["a_applies"],
                                      span.attrs["ha_applies"]))
        failed = any(s.error is not None for s in p.solves)
        p.check(code == 0 or (code == cli.EXIT_ERROR and failed),
                f"saddleprec solve exited {code}: {stderr.getvalue().strip()}")


def inexact_ha(p: Pass, M=256) -> None:
    """Inner-CG H_A: the solve subcommand's defaults for PU and PL, plus the
    cost subcommand's PU H_A, whose breakdown stays visible."""
    mesh_ = mesh.build_mesh(M)
    layout = mesh.assign_epsilon(mesh.place_periodic(mesh_, 2), "random",
                                 eps_min=1e-6, eps_max=1e-2, seed=p.seed)
    _, A, blocks, op = assembly.build_problem(mesh_, layout)
    instance = f"M={M}"
    H = precond.build_block_preconditioner(A, blocks, "cg")
    p.solve(instance, "pu", op, H, p0=solvers.random_guess(blocks.n, p.seed))
    p.solve(instance, "pl", op, H, z0=solvers.random_guess(op.size, p.seed))
    del H
    H_cost = precond.build_block_preconditioner(A, blocks, "cg", **COST_PU_HA)
    p.solve(f"{instance} cost-pu-ha", "pu", op, H_cost,
            p0=solvers.random_guess(blocks.n, COST_SEED))


def diagonal_ha(p: Pass, M=256) -> None:
    """Diagonal H_A with PL: the solver's own vector work dominates."""
    mesh_ = mesh.build_mesh(M)
    base = mesh.place_periodic(mesh_, 2)
    for i, eps in enumerate((1e-2, 1e-4, 1e-6)):
        layout = mesh.assign_epsilon(base, "uniform", epsilon=eps)
        _, A, blocks, op = assembly.build_problem(mesh_, layout)
        H = precond.build_block_preconditioner(A, blocks, "diagonal")
        # the iteration count follows the guess (about +-5 % per seed); a
        # guess of its own per instance averages that over three draws
        p.solve(f"M={M} eps={eps:g}", "pl", op, H,
                z0=solvers.random_guess(op.size, 3 * p.seed + i))


WORKLOADS = {
    "ladder-exact": ladder_exact,
    "contrast-sweep": contrast_sweep,
    "inexact-ha": inexact_ha,
    "diagonal-ha": diagonal_ha,
}
