"""Experiment driver: solver sweeps, spectrum verdicts, cost tables, exports.

Subcommands
  solve          iteration-count sweeps over (method, M, k, layout, eps, delta,
                 seed); one CSV row per run
  spectrum       dense interval verification per instance; CSV plus a verdict
                 block; process exits 2 if any verdict fails
  cost           {A, H_A}-application totals per method as a Markdown table
  export-matrix  assembled operators in Matrix Market ASCII

Configs are flat key = value text files; list-valued keys take commas.  Every
axis combination is validated before any run starts, results are emitted in
sorted order regardless of worker scheduling, and CSV content is a pure
function of the config and the seed arguments (timestamps live only in the
run manifest).  Exit status: 0 success, 1 solver or configuration error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time

import numpy as np
import scipy

from . import __version__
from .mesh import (MeshError, LayoutError, ParameterError, build_mesh,
                   place_periodic, place_random, assign_epsilon)
from . import assembly
from .assembly import (build_problem, build_saddle_operator, assemble_load,
                       assemble_sigma_matrix, write_matrix_market)
from .precond import (A_KINDS, BlockPreconditioner, ContractViolationError,
                      SchurPreconditioner, SolverBreakdownError,
                      build_block_preconditioner, check_a_options)
from .solvers import (pu_solve, pl_solve, pcg_k_solve, random_guess,
                      OperatorContractError, MaxIterationsError)
from .spectral import DENSE_LIMIT, verify_intervals

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY = 2

SOLVE_SCHEMA = "saddleprec.solve.v1"
SPECTRUM_SCHEMA = "saddleprec.spectrum.v1"
EIGS_SCHEMA = "saddleprec.spectrum-eigs.v1"

_METHODS = {"pu": pu_solve, "pl": pl_solve, "pcgk": pcg_k_solve}
_SOLVER_ERRORS = (SolverBreakdownError, MaxIterationsError,
                  OperatorContractError, ContractViolationError)

# derivation offsets for per-instance sub-seeds (documented, arbitrary primes)
_LAYOUT_SEED_OFFSET = 1000003
_EPS_SEED_OFFSET = 2000003


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config file handling

def parse_config(path: str) -> dict:
    """Flat key = value file; '#' starts a comment, lists use commas."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line.strip()!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _as_list(value: str) -> list:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _typed_list(raw, key, conv, default):
    if key not in raw:
        return list(default)
    try:
        return [conv(tok) for tok in _as_list(raw[key])]
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _typed_scalar(raw, key, conv, default):
    if key not in raw:
        return default
    try:
        return conv(raw[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _choices(key, values, allowed):
    for value in values:
        if value not in allowed:
            raise ConfigError(
                f"unknown {key} {value!r}; use {'|'.join(allowed)}")
    return values


def _bool(tok: str) -> bool:
    low = tok.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {tok!r}")


_COMMON_KEYS = {"M", "k", "layout", "removal", "eps_mode", "eps_min",
                "eps_max", "seed"}
# inner-CG H_A options: config key ha_<name> -> keyword <name> of
# make_a_preconditioner, with its type
_HA_OPTS = {"steps": int, "drop_tol": float, "fill_factor": float}
_HA_KEYS = {"ha"} | {f"ha_{name}" for name in _HA_OPTS}
_ALLOWED_KEYS = {
    "solve": _COMMON_KEYS | _HA_KEYS | {"method", "delta", "rhs", "max_iter"},
    "spectrum": _COMMON_KEYS | {"ha", "pencil", "tol", "corrupt_q"},
    "cost": _COMMON_KEYS | {"method", "delta", "max_iter"} | {
        f"{m}_{k}" for m in _METHODS for k in _HA_KEYS},
    "export-matrix": _COMMON_KEYS | {"matrix", "name"},
}


@dataclasses.dataclass
class ExperimentConfig:
    """Validated sweep axes shared by the subcommands."""

    command: str
    methods: list
    Ms: list
    ks: list
    layouts: list
    removal: int | None
    eps_modes: list
    eps_mins: list
    eps_max: float
    deltas: list
    seeds: list
    rhs: str
    max_iter: int
    ha_kind: str
    ha_opts: dict
    pencils: list
    tol: float
    corrupt_q: bool
    matrix: str
    name: str | None
    cost_ha: dict
    config_sha: str


def _ha_config(raw, prefix, kinds, kind, opts):
    """(kind, opts) of one H_A: a <prefix>ha key replaces the default kind
    and options, <prefix>ha_<option> keys override options of kind cg."""
    if prefix + "ha" in raw:
        kind, opts = raw[prefix + "ha"], {}
    _choices(prefix + "ha", [kind], kinds)
    opts = {**opts, **{name: _typed_scalar(raw, f"{prefix}ha_{name}", conv,
                                           None)
                       for name, conv in _HA_OPTS.items()
                       if f"{prefix}ha_{name}" in raw}}
    try:
        check_a_options(kind, opts)
    except ParameterError as exc:
        raise ConfigError(f"config key {prefix}ha: {exc}") from exc
    return kind, opts


def build_config(command: str, raw: dict, path: str,
                 seed_override: int | None = None) -> ExperimentConfig:
    allowed = _ALLOWED_KEYS[command]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")

    methods = _typed_list(raw, "method", str, ["pu", "pl", "pcgk"])
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from "
                              f"{', '.join(sorted(_METHODS))}")
    Ms = _typed_list(raw, "M", int, [16])
    ks = _typed_list(raw, "k", int, [2])
    layouts = _choices("layout", _typed_list(raw, "layout", str, ["periodic"]),
                       ("periodic", "random"))
    removal = _typed_scalar(raw, "removal", int, None)
    eps_modes = _choices("eps_mode",
                         _typed_list(raw, "eps_mode", str, ["uniform"]),
                         ("uniform", "random"))
    eps_mins = _typed_list(raw, "eps_min", float, [1e-4])
    eps_max = _typed_scalar(raw, "eps_max", float, 1e-2)
    deltas = _typed_list(raw, "delta", float, [1e-6])
    seeds = _typed_list(raw, "seed", int, [0])
    if seed_override is not None:
        seeds = [seed_override]
    rhs = _typed_scalar(raw, "rhs", str, "zero")
    _choices("rhs", [rhs], ("zero", "one"))
    max_iter = _typed_scalar(raw, "max_iter", int, 2000)
    ha_kind, ha_opts = _ha_config(
        raw, "", ("exact", "diagonal") if command == "spectrum" else A_KINDS,
        "exact", {})
    pencils = _choices("pencil",
                       _typed_list(raw, "pencil", str, ["preconditioner"]),
                       ("preconditioner", "ideal"))
    tol = _typed_scalar(raw, "tol", float, 1e-8)
    corrupt_q = _typed_scalar(raw, "corrupt_q", _bool, False)
    matrix = _typed_scalar(raw, "matrix", str, "saddle")
    _choices("matrix", [matrix], ("saddle", "stiffness", "sigma"))
    name = _typed_scalar(raw, "name", str, None)

    # per-method H_A configuration for the cost table; defaults mirror the
    # benchmark: PU runs an inner-CG H_A, the Krylov methods an exact one
    cost_ha = {
        "pu": ("cg", {"steps": 12, "drop_tol": 1e-2, "fill_factor": 8.0}),
        "pl": ("exact", {}),
        "pcgk": ("exact", {}),
    }
    if command == "cost":
        cost_ha = {m: _ha_config(raw, f"{m}_", A_KINDS, *cost_ha[m])
                   for m in _METHODS}

    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()

    return ExperimentConfig(
        command=command, methods=methods, Ms=Ms, ks=ks, layouts=layouts,
        removal=removal, eps_modes=eps_modes, eps_mins=eps_mins,
        eps_max=eps_max, deltas=deltas, seeds=seeds, rhs=rhs,
        max_iter=max_iter, ha_kind=ha_kind,
        ha_opts=ha_opts, pencils=pencils, tol=tol,
        corrupt_q=corrupt_q, matrix=matrix, name=name, cost_ha=cost_ha,
        config_sha=sha)


# ---------------------------------------------------------------------------
# instance construction

def _place(cfg, mesh, k, layout, seed):
    """The bare placement of an instance: inclusions with eps = 1."""
    if layout == "periodic":
        return place_periodic(mesh, k)
    count = (cfg.removal if cfg.removal is not None
             else place_periodic(mesh, k).m // 2)
    return place_random(mesh, k, count, seed=seed + _LAYOUT_SEED_OFFSET)


def _assign(cfg, lay, eps_mode, eps_min, seed):
    if eps_mode == "uniform":
        return assign_epsilon(lay, "uniform", epsilon=eps_min)
    return assign_epsilon(lay, "random", eps_min=eps_min,
                          eps_max=cfg.eps_max, seed=seed + _EPS_SEED_OFFSET)


def _build_layout(cfg, M, k, layout, eps_mode, eps_min, seed):
    mesh = build_mesh(M)
    return mesh, _assign(cfg, _place(cfg, mesh, k, layout, seed), eps_mode,
                         eps_min, seed)


def _axes(cfg, *extra):
    """Sorted tuples (M, k, layout, eps_mode, eps_min, *extra, seed)."""
    return sorted(itertools.product(cfg.Ms, cfg.ks, cfg.layouts,
                                    cfg.eps_modes, cfg.eps_mins, *extra,
                                    cfg.seeds))


def _instances(cfg):
    """Sorted run tuples of the subcommand; solve runs lead with the method."""
    if cfg.command == "solve":
        return sorted((method, *ax) for method in cfg.methods
                      for ax in _axes(cfg, cfg.deltas))
    if cfg.command == "spectrum":
        return _axes(cfg, cfg.pencils)
    if cfg.command == "cost":
        return _axes(cfg, cfg.deltas)
    return _axes(cfg)


def _export_stem(cfg, ax):
    M, k, layout, _, eps_min, _ = ax
    return cfg.name or f"{cfg.matrix}_M{M}_k{k}_{layout}_{eps_min:g}"


def validate_instances(cfg: ExperimentConfig) -> None:
    """Fail fast: refuse sweeps whose exports would overwrite each other and
    construct every distinct layout of the sweep before any run."""
    instances = _instances(cfg)
    if not instances:       # an empty axis (say `method =`) runs nothing
        return
    if cfg.command == "export-matrix":
        owners = {}
        for ax in instances:
            label = "M={} k={} {} eps_mode={} eps_min={:g} seed={}".format(*ax)
            stem = _export_stem(cfg, ax)
            if stem in owners:
                hint = ("drop 'name'" if cfg.name else
                        "file names omit eps_mode and seed")
                raise ConfigError(
                    f"export-matrix instances [{owners[stem]}] and [{label}] "
                    f"would both write {stem}.mtx; narrow the sweep "
                    f"({hint})")
            owners[stem] = label
    for (M, k, *rest) in sorted(set(_axes(cfg))):
        mesh, lay = _build_layout(cfg, M, k, *rest)
        dim = mesh.n_interior + lay.n
        if cfg.command == "spectrum" and dim > DENSE_LIMIT:
            raise ConfigError(
                f"spectrum instance M={M} k={k} has dimension {dim} > "
                f"{DENSE_LIMIT}; dense verification is desk-scale only, "
                "use smaller M (or the lanczos_extremes API for extreme "
                "eigenvalue estimates)")


# ---------------------------------------------------------------------------
# operators shared across instances

@dataclasses.dataclass(eq=False)
class _Operator:
    """The eps-independent part of the instances with one operator key
    (M, k, layout, layout seed or None): mesh, bare placement, ordering, A,
    the unit load and each H_A built on A, keyed by (kind, options)."""

    key: tuple
    mesh: object
    placement: object
    ordering: object
    A: object
    a_invs: dict = dataclasses.field(default_factory=dict)

    @functools.cached_property
    def unit_load(self) -> np.ndarray:
        return assemble_load(self.mesh, 1.0, ordering=self.ordering)


class _Sweep:
    """Builds the instances of one sweep, sharing each _Operator across
    consecutive instances with the same key.

    A worker thread holds one key at a time and frees it before it builds
    the next, so a sweep keeps at most one A and its H_A per thread alive,
    and nothing of it outlives the sweep.  Instances run in their sorted
    order, and every matrix, factorization and pivot is the one a fresh
    build would make, so outputs do not depend on the sharing.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.ha_setups = 0
        self._lock = threading.Lock()
        self._slot = threading.local()

    def _operator(self, M, k, layout, seed) -> _Operator:
        key = (M, k, layout, seed if layout == "random" else None)
        held = getattr(self._slot, "held", None)
        if held is None or held.key != key:
            self._slot.held = held = None       # free the previous key first
            mesh = build_mesh(M)
            placement = _place(self.cfg, mesh, k, layout, seed)
            ordering, A, _, _ = build_problem(mesh, placement)
            held = self._slot.held = _Operator(key, mesh, placement,
                                               ordering, A)
        return held

    def instance(self, M, k, layout, eps_mode, eps_min, seed):
        """(shared operator, saddle operator) of one instance; only the
        eps assignment and the inclusion blocks are built here."""
        shared = self._operator(M, k, layout, seed)
        lay = _assign(self.cfg, shared.placement, eps_mode, eps_min, seed)
        # looked up on the module, so a wrapper installed there sees it
        blocks = assembly.assemble_inclusion_blocks(shared.mesh, lay)
        return shared, build_saddle_operator(shared.A, blocks)

    def preconditioner(self, shared: _Operator, blocks, kind: str,
                       opts: dict) -> BlockPreconditioner:
        """H = diag(H_A, H_S) over the shared H_A of (kind, opts)."""
        ha_key = (kind, tuple(sorted(opts.items())))
        if ha_key not in shared.a_invs:
            shared.a_invs[ha_key] = build_block_preconditioner(
                shared.A, blocks, kind, **opts).a_inv
            with self._lock:
                self.ha_setups += 1
        return BlockPreconditioner(a_inv=shared.a_invs[ha_key],
                                   schur=SchurPreconditioner(blocks),
                                   N=shared.A.shape[0], n=blocks.n)


# ---------------------------------------------------------------------------
# workers

@contextlib.contextmanager
def _naming_instance(method, M, k, layout, eps_mode, eps_min, delta, seed):
    """Append the instance to any solver error raised inside the block."""
    try:
        yield
    except _SOLVER_ERRORS as exc:
        raise type(exc)(
            f"{exc} [method={method} M={M} k={k} {layout} eps_min={eps_min:g} "
            f"delta={delta:g} seed={seed}]") from exc


def _guess(method, op, seed):
    """Random initial guess keyword: p0 on the inclusions for PU, else z0."""
    if method == "pu":
        return {"p0": random_guess(op.n, seed)}
    return {"z0": random_guess(op.size, seed)}


def _run_solve(sweep, axes):
    cfg = sweep.cfg
    method, M, k, layout, eps_mode, eps_min, delta, seed = axes
    shared, op = sweep.instance(M, k, layout, eps_mode, eps_min, seed)
    with _naming_instance(*axes):
        precond = sweep.preconditioner(shared, op.blocks, cfg.ha_kind,
                                       cfg.ha_opts)
        if cfg.rhs == "zero":
            kwargs = _guess(method, op, seed)
        else:
            F = np.zeros(op.size)
            F[:op.N] = shared.unit_load
            kwargs = {"F": F}
        report = _METHODS[method](op, precond, delta=delta,
                                  max_iter=cfg.max_iter, **kwargs)
    return {
        "method": method, "M": M, "k": k, "layout": layout,
        "removal": cfg.removal if layout == "random" else 0,
        "eps_mode": eps_mode, "eps_min": eps_min, "eps_max": cfg.eps_max,
        "delta": delta, "ha": cfg.ha_kind, "seed": seed,
        "iterations": report.iterations,
        "converged": report.converged,
        "stop_rule": report.stop_rule,
        "a_applies": report.a_applies,
        "ha_applies": report.ha_applies,
        "total_applies": report.total_applies,
        "final_ratio": f"{report.final_ratio:.6e}",
        "monotone": report.is_monotone(),
    }


def _run_spectrum(cfg, axes):
    M, k, layout, eps_mode, eps_min, pencil, seed = axes
    mesh, lay = _build_layout(cfg, M, k, layout, eps_mode, eps_min, seed)
    rep = verify_intervals(lay, ha_kind=cfg.ha_kind, pencil=pencil,
                           tol=cfg.tol, corrupt_q=cfg.corrupt_q)
    row = {
        "M": M, "k": k, "layout": layout, "eps_mode": eps_mode,
        "eps_min": eps_min, "eps_max": rep.eps_max, "pencil": pencil,
        "ha": cfg.ha_kind, "seed": seed,
        "dim": mesh.n_interior + lay.n,
        "a0": f"{rep.a0:.12f}", "b0": f"{rep.b0:.12f}",
        "r_max": f"{rep.r_max:.12f}",
        "mu_check1": f"{rep.mu_check1:.12f}", "mu_hat1": f"{rep.mu_hat1:.12f}",
        "mu_check2": f"{rep.mu_check2:.12f}", "mu_hat2": f"{rep.mu_hat2:.12f}",
        "lam_min": f"{rep.lam_min:.12f}", "lam_max": f"{rep.lam_max:.12f}",
        "n_minus_one": rep.n_minus_one, "n_plus_one": rep.n_plus_one,
        "n_viol_strict": int(len(rep.violations("stated"))),
        "verdict_strict": "PASS" if rep.stated_ok else "FAIL",
        "n_viol": int(len(rep.violations("envelope"))),
        "verdict": "PASS" if rep.envelope_ok else "FAIL",
    }
    eig_rows = [{
        "M": M, "k": k, "layout": layout, "eps_mode": eps_mode,
        "eps_min": eps_min, "pencil": pencil, "seed": seed, "index": i,
        "eigenvalue": f"{val:.12e}",
        "in_stated": bool(rep.in_stated[i]),
        "in_envelope": bool(rep.in_envelope[i]),
    } for i, val in enumerate(rep.eigenvalues)]
    return row, eig_rows


def _run_cost(sweep, axes):
    cfg = sweep.cfg
    M, k, layout, eps_mode, eps_min, delta, seed = axes
    shared, op = sweep.instance(M, k, layout, eps_mode, eps_min, seed)
    entry = {"M": M, "k": k, "layout": layout, "eps_mode": eps_mode,
             "eps_min": eps_min, "delta": delta, "seed": seed}
    for method in cfg.methods:
        kind, opts = cfg.cost_ha[method]
        with _naming_instance(method, *axes):
            precond = sweep.preconditioner(shared, op.blocks, kind, opts)
            report = _METHODS[method](op, precond, delta=delta,
                                      max_iter=cfg.max_iter,
                                      **_guess(method, op, seed))
        entry[method] = {"iters": report.iterations, "a": report.a_applies,
                         "ha": report.ha_applies,
                         "total": report.total_applies, "ha_kind": kind}
    return entry


# ---------------------------------------------------------------------------
# output

def _write_csv(path, schema, fieldnames, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(str(row[f]) for f in fieldnames) + "\n")


def write_manifest(out_dir, command, cfg, args_seed, n_instances,
                   ha_setups=None):
    """Run record beside the CSVs: environment, timestamp and the H_A
    set-ups of a solve or cost sweep (None for the other subcommands)."""
    manifest = {
        "schema": "saddleprec.manifest.v1",
        "command": command,
        "config_sha256": cfg.config_sha,
        "version": __version__,
        "seeds": list(cfg.seeds),
        "seed_override": args_seed,
        "instances": n_instances,
        "ha_setups": ha_setups,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _pool_map(worker, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [worker(it) for it in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items))


# ---------------------------------------------------------------------------
# subcommand drivers

def cmd_solve(cfg: ExperimentConfig, out_dir: str, threads: int,
              args_seed) -> int:
    axes = _instances(cfg)
    sweep = _Sweep(cfg)
    rows = _pool_map(lambda ax: _run_solve(sweep, ax), axes, threads)
    fields = ["method", "M", "k", "layout", "removal", "eps_mode", "eps_min",
              "eps_max", "delta", "ha", "seed", "iterations", "converged",
              "stop_rule", "a_applies", "ha_applies", "total_applies",
              "final_ratio", "monotone"]
    path = os.path.join(out_dir, "solve.csv")
    _write_csv(path, SOLVE_SCHEMA, fields, rows)
    write_manifest(out_dir, "solve", cfg, args_seed, len(axes),
                   sweep.ha_setups)
    print(f"solve: {len(rows)} runs -> {path}")
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, out_dir: str, threads: int,
                 args_seed) -> int:
    axes = _instances(cfg)
    results = _pool_map(lambda ax: _run_spectrum(cfg, ax), axes, threads)
    rows = [r for r, _ in results]
    eig_rows = [er for _, ers in results for er in ers]
    fields = ["M", "k", "layout", "eps_mode", "eps_min", "eps_max", "pencil",
              "ha", "seed", "dim", "a0", "b0", "r_max", "mu_check1",
              "mu_hat1", "mu_check2", "mu_hat2", "lam_min", "lam_max",
              "n_minus_one", "n_plus_one", "n_viol_strict", "verdict_strict",
              "n_viol", "verdict"]
    path = os.path.join(out_dir, "spectrum.csv")
    _write_csv(path, SPECTRUM_SCHEMA, fields, rows)
    eig_fields = ["M", "k", "layout", "eps_mode", "eps_min", "pencil", "seed",
                  "index", "eigenvalue", "in_stated", "in_envelope"]
    eig_path = os.path.join(out_dir, "spectrum_eigs.csv")
    _write_csv(eig_path, EIGS_SCHEMA, eig_fields, eig_rows)
    write_manifest(out_dir, "spectrum", cfg, args_seed, len(axes))

    print(f"spectrum: {len(rows)} instances -> {path}")
    failed = 0
    for row in rows:
        mark = "PASS" if row["verdict"] == "PASS" else "FAIL"
        failed += row["verdict"] != "PASS"
        print(f"  [{mark}] M={row['M']} k={row['k']} {row['layout']} "
              f"eps_min={row['eps_min']:g} {row['pencil']}: "
              f"spectrum in [{row['lam_min']}, {row['lam_max']}], "
              f"{row['n_viol']} outside the measured envelope "
              f"(strict two-interval check: {row['verdict_strict']}, "
              f"{row['n_viol_strict']} outside)")
    if failed:
        print(f"spectrum: {failed} instance(s) FAILED verification")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_cost(cfg: ExperimentConfig, out_dir: str, threads: int,
             args_seed) -> int:
    axes = _instances(cfg)
    sweep = _Sweep(cfg)
    entries = _pool_map(lambda ax: _run_cost(sweep, ax), axes, threads)

    header = ["eps_min"]
    for m in cfg.methods:
        kind = cfg.cost_ha[m][0]
        header.append(f"{m.upper()} iters (H_A={kind})")
        header.append(f"{m.upper()} A+H_A")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    for e in entries:
        cells = [f"{e['eps_min']:g}"]
        for m in cfg.methods:
            cells.append(str(e[m]["iters"]))
            cells.append(f"{e[m]['total']} ({e[m]['a']}+{e[m]['ha']})")
        lines.append("| " + " | ".join(cells) + " |")
    table = "\n".join(lines)

    path = os.path.join(out_dir, "cost.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# Application counts (M={cfg.Ms}, k={cfg.ks}, "
                 f"delta={cfg.deltas})\n\n")
        fh.write(table + "\n")
    write_manifest(out_dir, "cost", cfg, args_seed, len(axes),
                   sweep.ha_setups)
    print(table)
    print(f"cost: {len(entries)} instance(s) -> {path}")
    return EXIT_OK


def cmd_export_matrix(cfg: ExperimentConfig, out_dir: str, threads: int,
                      args_seed) -> int:
    axes = _instances(cfg)
    for ax in axes:
        M, k, layout, eps_mode, eps_min, seed = ax
        mesh, lay = _build_layout(cfg, *ax)
        if cfg.matrix == "sigma":
            mat = assemble_sigma_matrix(mesh, lay)
        else:
            _, A, _, op = build_problem(mesh, lay)
            mat = op.to_sparse() if cfg.matrix == "saddle" else A
        path = os.path.join(out_dir, _export_stem(cfg, ax) + ".mtx")
        write_matrix_market(path, mat,
                            comment=f"{cfg.matrix} M={M} k={k} {layout} "
                                    f"eps_min={eps_min:g} seed={seed}")
        print(f"export: {mat.shape[0]}x{mat.shape[1]}, "
              f"{mat.nnz} stored entries -> {path}")
    write_manifest(out_dir, "export-matrix", cfg, args_seed, len(axes))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saddleprec",
                     description="saddle-point solvers for high-contrast "
                                 "diffusion: experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("solve", "iteration-count sweep, one CSV row per run"),
            ("spectrum", "dense eigenvalue interval verification"),
            ("cost", "operator application counts as a Markdown table"),
            ("export-matrix", "write assembled operators in Matrix Market")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep instances")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed axis with one seed")
    return parser


_DISPATCH = {
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "cost": cmd_cost,
    "export-matrix": cmd_export_matrix,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        raw = parse_config(args.config)
        cfg = build_config(args.command, raw, args.config,
                           seed_override=args.seed)
        validate_instances(cfg)
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[args.command](cfg, args.out, max(1, args.threads),
                                       args.seed)
    except (ConfigError, MeshError, LayoutError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
