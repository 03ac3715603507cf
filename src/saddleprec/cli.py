"""Experiment driver: solver sweeps, spectrum verdicts, cost tables, exports.

Subcommands
  solve          iteration-count sweeps over (method, M, k, layout, eps, delta,
                 seed); one CSV row per run
  spectrum       dense interval verification per instance; CSV plus a verdict
                 block; process exits 2 if any verdict fails
  cost           the solve runs with a per-method H_A, their iterations and
                 {A, H_A}-application totals pivoted into a Markdown table:
                 one row per axes tuple, labelled by eps_min and by every
                 other axis that takes more than one value
  export-matrix  assembled operators in Matrix Market ASCII

Configs are flat key = value text files; list-valued keys take commas.
Every axis combination is validated before any run starts by building its
layout, even when the method axis is empty: one mesh per M, one placement
per operator key, one eps copy per axes tuple.  Runs build only from these
layouts, whose placements keep ordering, A and blocks for the invocation.
Results are emitted in sorted order regardless of worker scheduling, and CSV
content is a pure function of the config, the seed arguments and the BLAS
thread count, which moves the last digits of solve.csv's final_ratio;
--threads does not change it.  Timestamps and the BLAS thread variables live
only in the run manifest.  Exit status: 0 success, 1 solver or configuration
error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .mesh import (MeshError, LayoutError, ParameterError, build_mesh,
                   build_ordering, place_periodic, place_random,
                   assign_epsilon)
from .assembly import (build_problem, assemble_load, assemble_sigma_matrix,
                       assemble_stiffness, write_matrix_market)
from .precond import (A_KINDS, ContractViolationError, SolverBreakdownError,
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


def _in_range(name, values, ok, need):
    for value in values:
        if not ok(value):
            raise ConfigError(f"{name} must be {need}, got {value!r}")


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
    ha: dict                # method -> (H_A kind, options)
    pencils: list
    tol: float
    corrupt_q: bool
    matrix: str
    name: str | None
    config_sha: str


# per-method H_A of the cost table; defaults mirror the benchmark: PU runs an
# inner-CG H_A, the Krylov methods an exact one
_COST_HA = {
    "pu": ("cg", {"steps": 12, "drop_tol": 1e-2, "fill_factor": 8.0}),
    "pl": ("exact", {}),
    "pcgk": ("exact", {}),
}


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
    _in_range("config key 'delta'", deltas, lambda d: 0 < d < 1, "in (0, 1)")
    seeds = _typed_list(raw, "seed", int, [0])
    _in_range("config key 'seed'", seeds, lambda s: s >= 0, ">= 0")
    if seed_override is not None:
        _in_range("--seed", [seed_override], lambda s: s >= 0, ">= 0")
        seeds = [seed_override]
    rhs = _typed_scalar(raw, "rhs", str, "zero")
    _choices("rhs", [rhs], ("zero", "one"))
    max_iter = _typed_scalar(raw, "max_iter", int, 2000)
    _in_range("config key 'max_iter'", [max_iter], lambda n: n >= 1, ">= 1")
    if command == "cost":       # <method>_ha keys over _COST_HA
        ha = {m: _ha_config(raw, f"{m}_", A_KINDS, *_COST_HA[m])
              for m in _METHODS}
    else:                       # the one ha key for every method
        ha = dict.fromkeys(_METHODS, _ha_config(
            raw, "", ("exact", "diagonal") if command == "spectrum"
            else A_KINDS, "exact", {}))
    pencils = _choices("pencil",
                       _typed_list(raw, "pencil", str, ["preconditioner"]),
                       ("preconditioner", "ideal"))
    tol = _typed_scalar(raw, "tol", float, 1e-8)
    _in_range("config key 'tol'", [tol], lambda t: t >= 0, ">= 0")
    corrupt_q = _typed_scalar(raw, "corrupt_q", _bool, False)
    matrix = _typed_scalar(raw, "matrix", str, "saddle")
    _choices("matrix", [matrix], ("saddle", "stiffness", "sigma"))
    name = _typed_scalar(raw, "name", str, None)

    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()

    return ExperimentConfig(
        command=command, methods=methods, Ms=Ms, ks=ks, layouts=layouts,
        removal=removal, eps_modes=eps_modes, eps_mins=eps_mins,
        eps_max=eps_max, deltas=deltas, seeds=seeds, rhs=rhs,
        max_iter=max_iter, ha=ha, pencils=pencils, tol=tol,
        corrupt_q=corrupt_q, matrix=matrix, name=name, config_sha=sha)


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


def _axes(cfg, *extra):
    """Sorted tuples (M, k, layout, eps_mode, eps_min, *extra, seed)."""
    return sorted(itertools.product(cfg.Ms, cfg.ks, cfg.layouts,
                                    cfg.eps_modes, cfg.eps_mins, *extra,
                                    cfg.seeds))


def _operator_key(ax):
    """(M, k, layout, layout seed or None) of axes (M, k, layout, ..., seed):
    what the mesh, placement, ordering, A and H_A of an instance depend on."""
    M, k, layout, *_, seed = ax
    return M, k, layout, seed if layout == "random" else None


def _layout_key(ax):
    """Layout key (M, k, layout, eps_mode, eps_min, seed) of longer axes."""
    return (*ax[:5], ax[-1])


def _export_stem(cfg, ax):
    M, k, layout, _, eps_min, _ = ax
    return cfg.name or f"{cfg.matrix}_M{M}_k{k}_{layout}_{eps_min:g}"


def validate_instances(cfg: ExperimentConfig) -> dict:
    """Fail fast: refuse sweeps whose exports would overwrite each other and
    construct every distinct layout of the sweep before any run, whatever
    the method axis: one mesh per M, one placement per operator key and
    every eps assignment, in sorted axes order.  Returns the layout of each
    (M, k, layout, eps_mode, eps_min, seed); the runs build only from it."""
    if cfg.command == "export-matrix":
        owners = {}
        for ax in _axes(cfg):
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
    meshes, placed, layouts = {}, {}, {}
    for ax in sorted(set(_axes(cfg))):
        M, k, layout, eps_mode, eps_min, seed = ax
        if M not in meshes:
            meshes[M] = build_mesh(M)
        key = _operator_key(ax)
        if key not in placed:
            placed[key] = _place(cfg, meshes[M], k, layout, seed)
        lay = layouts[ax] = _assign(cfg, placed[key], eps_mode, eps_min, seed)
        dim = meshes[M].n_interior + lay.n
        if cfg.command == "spectrum" and dim > DENSE_LIMIT:
            raise ConfigError(
                f"spectrum instance M={M} k={k} has dimension {dim} > "
                f"{DENSE_LIMIT}; dense verification is desk-scale only, "
                "use smaller M (or the ritz_extremes of a solver report "
                "for extreme eigenvalue estimates)")
    return layouts


# ---------------------------------------------------------------------------
# workers

def _sweep(cfg, layouts, instances, threads):
    """(_run_solve row per instance in order, H_A set-ups) of instances
    (method, M, k, layout, eps_mode, eps_min, delta, seed).

    Each maximal run of consecutive instances with one operator key is one
    worker task holding one H_A per (kind, options), freed when the task
    returns, so the set-ups do not depend on the thread count.
    """
    def task(run):
        preconds = {}
        return ([_run_solve(cfg, layouts[_layout_key(instance[1:])],
                            preconds, instance) for instance in run],
                len(preconds))

    runs = [list(group) for _, group in itertools.groupby(
        instances, lambda instance: _operator_key(instance[1:]))]
    done = _pool_map(task, runs, threads)
    return ([result for results, _ in done for result in results],
            sum(setups for _, setups in done))


def _run_solve(cfg, lay, preconds, instance):
    """One solve of the instance on its layout; preconds holds the H (eps
    free) of each (kind, options) built on the layout's placement so far."""
    method, M, k, layout, eps_mode, eps_min, delta, seed = instance
    kind, opts = cfg.ha[method]
    ordering, A, blocks, op = build_problem(lay.mesh, lay)
    try:
        key = (kind, tuple(sorted(opts.items())))
        if key not in preconds:
            preconds[key] = build_block_preconditioner(A, blocks, kind, **opts)
        if cfg.rhs == "one":
            kwargs = {"F": np.concatenate((assemble_load(
                lay.mesh, 1.0, ordering=ordering), np.zeros(op.n)))}
        elif method == "pu":    # random guess: p0 on the inclusions for PU
            kwargs = {"p0": random_guess(op.n, seed)}
        else:
            kwargs = {"z0": random_guess(op.size, seed)}
        report = _METHODS[method](op, preconds[key], delta=delta,
                                  max_iter=cfg.max_iter, **kwargs)
    except _SOLVER_ERRORS as exc:   # name the instance
        raise type(exc)(
            f"{exc} [method={method} M={M} k={k} {layout} eps_min={eps_min:g} "
            f"delta={delta:g} seed={seed}]") from exc
    return {
        "method": method, "M": M, "k": k, "layout": layout,
        "removal": lay.removal_count,
        "eps_mode": eps_mode, "eps_min": eps_min, "eps_max": cfg.eps_max,
        "delta": delta, "ha": kind, "seed": seed,
        "iterations": report.iterations,
        "converged": report.converged,
        "stop_rule": report.stop_rule,
        "a_applies": report.a_applies,
        "ha_applies": report.ha_applies,
        "total_applies": report.total_applies,
        "final_ratio": f"{report.final_ratio:.6e}",
        "monotone": report.is_monotone(),
    }


def _run_spectrum(cfg, lay, axes):
    M, k, layout, eps_mode, eps_min, pencil, seed = axes
    kind = cfg.ha["pl"][0]      # every method maps to the one ha key
    rep = verify_intervals(lay, ha_kind=kind, pencil=pencil,
                           tol=cfg.tol, corrupt_q=cfg.corrupt_q)
    row = {
        "M": M, "k": k, "layout": layout, "eps_mode": eps_mode,
        "eps_min": eps_min, "eps_max": rep.eps_max, "pencil": pencil,
        "ha": kind, "seed": seed,
        "dim": lay.mesh.n_interior + lay.n,
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
    """Run record beside the CSVs: environment (BLAS thread variables as
    strings, None when unset), timestamp and the H_A set-ups of a solve or
    cost sweep (None for the other subcommands)."""
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
        **{var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
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

def cmd_solve(cfg: ExperimentConfig, layouts: dict, out_dir: str,
              threads: int, args_seed) -> int:
    instances = sorted((method, *ax) for method in cfg.methods
                       for ax in _axes(cfg, cfg.deltas))
    rows, ha_setups = _sweep(cfg, layouts, instances, threads)
    fields = ["method", "M", "k", "layout", "removal", "eps_mode", "eps_min",
              "eps_max", "delta", "ha", "seed", "iterations", "converged",
              "stop_rule", "a_applies", "ha_applies", "total_applies",
              "final_ratio", "monotone"]
    path = os.path.join(out_dir, "solve.csv")
    _write_csv(path, SOLVE_SCHEMA, fields, rows)
    write_manifest(out_dir, "solve", cfg, args_seed, len(instances),
                   ha_setups)
    print(f"solve: {len(rows)} runs -> {path}")
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, layouts: dict, out_dir: str,
                 threads: int, args_seed) -> int:
    axes = _axes(cfg, cfg.pencils)
    results = _pool_map(lambda ax: _run_spectrum(cfg, layouts[_layout_key(ax)],
                                                 ax), axes, threads)
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


def cmd_cost(cfg: ExperimentConfig, layouts: dict, out_dir: str,
             threads: int, args_seed) -> int:
    axes = _axes(cfg, cfg.deltas)
    # the solve runs with methods inside each axes tuple, one row per tuple
    instances = [(m, *ax) for ax in axes for m in cfg.methods]
    results, ha_setups = _sweep(cfg, layouts, instances, threads)
    # eps_min first, then every other axis that varies, in _axes order
    labels = [4] + [i for i, values in enumerate(zip(*axes))
                    if i != 4 and len(set(values)) > 1]
    header = [("M", "k", "layout", "eps_mode", "eps_min", "delta", "seed")[i]
              for i in labels]
    for m in cfg.methods:
        header.append(f"{m.upper()} iters (H_A={cfg.ha[m][0]})")
        header.append(f"{m.upper()} A+H_A")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    rows = iter(results)
    for ax in axes:
        cells = [f"{ax[i]:g}" if isinstance(ax[i], float) else str(ax[i])
                 for i in labels]
        for row in itertools.islice(rows, len(cfg.methods)):
            cells.append(str(row["iterations"]))
            cells.append(f"{row['total_applies']} "
                         f"({row['a_applies']}+{row['ha_applies']})")
        lines.append("| " + " | ".join(cells) + " |")
    table = "\n".join(lines)

    path = os.path.join(out_dir, "cost.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# Application counts (M={cfg.Ms}, k={cfg.ks}, "
                 f"delta={cfg.deltas})\n\n")
        fh.write(table + "\n")
    write_manifest(out_dir, "cost", cfg, args_seed, len(axes), ha_setups)
    print(table)
    print(f"cost: {len(axes)} instance(s) -> {path}")
    return EXIT_OK


def cmd_export_matrix(cfg: ExperimentConfig, layouts: dict, out_dir: str,
                      threads: int, args_seed) -> int:
    axes = _axes(cfg)
    stiffness = {}                      # A per placement, keyed by its slot
    for ax in axes:
        M, k, layout, eps_mode, eps_min, seed = ax
        lay = layouts[ax]
        if cfg.matrix == "sigma":
            mat = assemble_sigma_matrix(lay.mesh, lay)
        elif cfg.matrix == "stiffness":
            if lay.slot not in stiffness:
                stiffness[lay.slot] = assemble_stiffness(lay.mesh,
                                                         build_ordering(lay))
            mat = stiffness[lay.slot]
        else:
            mat = build_problem(lay.mesh, lay)[3].to_sparse()
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
        layouts = validate_instances(cfg)
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[args.command](cfg, layouts, args.out,
                                       max(1, args.threads), args.seed)
    except (ConfigError, MeshError, LayoutError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
