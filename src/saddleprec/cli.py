"""Experiment driver: solver sweeps, spectrum verdicts, cost tables, exports.

Subcommands
  solve          iteration-count sweeps over (method, M, k, layout, eps, delta,
                 seed); one CSV row per run
  spectrum       dense interval verification per instance; CSV plus a verdict
                 block; process exits 2 if any verdict fails
  cost           the solve runs with a fixed H_A per method, their iterations
                 and {A, H_A}-application totals pivoted into a Markdown table:
                 one row per axes tuple, labelled by eps_min and by every
                 other axis that takes more than one value
  export-matrix  assembled operators in Matrix Market ASCII: stiffness and
                 saddle in system order, sigma in mesh interior order

Configs are flat key = value text files; list-valued keys take commas and
refuse a repeated value.  Every key is declared once, in _KEYS, with its
converter, default, admissible values and subcommands.  Every axis
combination is validated before any run starts by building its layout, even
when the method axis is empty: one mesh per M, one placement per operator
key, one eps copy per axes tuple.  Runs build only from these layouts, whose
placements keep ordering, A and blocks until the placement's last run is
done: a sweep task or an export drops its eps copies then.  The CSV,
Markdown and manifest outputs are opened before the first run and removed if
a run fails.
Results are emitted in sorted order regardless of worker scheduling, and CSV
content is a pure function of the config, the seed arguments and the BLAS
thread count, which moves the last digits of solve.csv's final_ratio;
--threads does not change it.  Timestamps and the BLAS thread variables live
only in the run manifest.  Exit status: 0 success, 1 solver, configuration
or I/O error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import time
import types

import numpy as np
import scipy

from . import __version__
from .mesh import (EPS_MODES, MeshError, LayoutError, ParameterError,
                   build_mesh, build_ordering, place_periodic, place_random,
                   assign_epsilon, _periodic_corners)
from .assembly import (build_problem, assemble_load, assemble_sigma_matrix,
                       assemble_stiffness, write_matrix_market)
from .precond import (A_KINDS, ContractViolationError, SolverBreakdownError,
                      build_block_preconditioner)
from .solvers import (pu_solve, pl_solve, pcg_k_solve, random_guess,
                      OperatorContractError, MaxIterationsError)
from .spectral import PENCILS, check_dense_size, verify_intervals

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

def parse_config(path: str) -> tuple[dict, str]:
    """Flat key = value file; '#' starts a comment, lists use commas.
    Returns the key map and the SHA-256 of the bytes it was parsed from:
    the file is read once, a leading UTF-8 byte-order mark dropped and its
    lines split as text-mode reading does."""
    raw = {}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        lines = io.StringIO(data.decode("utf-8-sig"), newline=None).readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    return raw, hashlib.sha256(data).hexdigest()


# one row per config key: its converter, its default (a list default makes
# the key a comma list), its admissible values (a tuple of choices, a _Range
# test with what it tests, or None for any) and the subcommands accepting it
_Key = collections.namedtuple("_Key", "conv default admit commands")
_Range = collections.namedtuple("_Range", "ok need")
_ALL = ("solve", "spectrum", "cost", "export-matrix")
_SWEEPS = ("solve", "cost")
_NONNEG = _Range(lambda v: v >= 0, ">= 0")
_POSITIVE_INT = _Range(lambda n: n >= 1, ">= 1")
_KEYS = {
    "method": _Key(str, list(_METHODS), tuple(_METHODS), _SWEEPS),
    "M": _Key(int, [16], None, _ALL),
    "k": _Key(int, [2], None, _ALL),
    "layout": _Key(str, ["periodic"], ("periodic", "random"), _ALL),
    "removal": _Key(int, None, None, _ALL),
    "eps_mode": _Key(str, ["uniform"], EPS_MODES, _ALL),
    "eps_min": _Key(float, [1e-4], None, _ALL),
    "eps_max": _Key(float, 1e-2, _Range(lambda e: 0 < e <= 1, "in (0, 1]"),
                    _ALL),
    "delta": _Key(float, [1e-6], _Range(lambda d: 0 < d < 1, "in (0, 1)"),
                  _SWEEPS),
    "seed": _Key(int, [0], _NONNEG, _ALL),
    "rhs": _Key(str, "zero", ("zero", "one"), ("solve",)),
    "max_iter": _Key(int, 2000, _POSITIVE_INT, _SWEEPS),
    "pencil": _Key(str, ["preconditioner"], PENCILS, ("spectrum",)),
    "matrix": _Key(str, "saddle", ("saddle", "stiffness", "sigma"),
                   ("export-matrix",)),
    "ha": _Key(str, "exact", tuple(A_KINDS), ("solve",)),
}
# the H_A kind of cost's runs per method: Uzawa on the inexact inner solve,
# the Krylov methods on the exact one; solve's ha runs any other pairing
_COST_HA = {"pu": "cg", "pl": "exact", "pcgk": "exact"}


def _allowed_keys(command):
    """The _KEYS keys command accepts."""
    return {key for key, row in _KEYS.items() if command in row.commands}


def _convert(key, conv, text):
    try:
        return conv(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _admit(key, value, admit, label=None):
    """Refuse a value of key outside admit; label names the value's source
    in a range error (default: the config key)."""
    if isinstance(admit, _Range):
        if not admit.ok(value):
            label = label or f"config key {key!r}"
            raise ConfigError(f"{label} must be {admit.need}, got {value!r}")
    elif admit is not None and value not in admit:
        raise ConfigError(f"unknown {key} {value!r}; use {'|'.join(admit)}")


def build_config(command: str, raw: dict, config_sha: str,
                 seed_override: int | None = None) -> types.SimpleNamespace:
    """The validated config: one attribute per key of _KEYS, a list for a
    list key, plus command, seed_override and config_sha."""
    allowed = _allowed_keys(command)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")

    cfg = types.SimpleNamespace(command=command, seed_override=seed_override,
                                config_sha=config_sha)
    for key, (conv, default, admit, _) in _KEYS.items():
        listed = isinstance(default, list)
        if key not in raw:
            setattr(cfg, key, list(default) if listed else default)
            continue
        values = ([_convert(key, conv, tok.strip())
                   for tok in raw[key].split(",") if tok.strip()]
                  if listed else [_convert(key, conv, raw[key])])
        # an empty method axis is the validation-only run; any other empty
        # axis would run nothing and report success
        if not values and key != "method":
            raise ConfigError(f"config key {key!r} lists no value")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"config key {key!r} repeats {value!r}")
            _admit(key, value, admit)
        setattr(cfg, key, values if listed else values[0])
    if seed_override is not None:
        _admit("seed", seed_override, _KEYS["seed"].admit, "--seed")
        cfg.seed = [seed_override]
    return cfg


# ---------------------------------------------------------------------------
# instance construction

def _place(cfg, mesh, k, layout, seed):
    """The bare placement of an instance: inclusions with eps = 1."""
    if layout == "periodic":
        return place_periodic(mesh, k)
    count = (cfg.removal if cfg.removal is not None
             else len(_periodic_corners(mesh, k)) // 2)
    return place_random(mesh, k, count, seed=seed + _LAYOUT_SEED_OFFSET)


def _assign(cfg, lay, eps_mode, eps_min, seed):
    if eps_mode == "uniform":
        return assign_epsilon(lay, "uniform", epsilon=eps_min)
    return assign_epsilon(lay, "random", eps_min=eps_min,
                          eps_max=cfg.eps_max, seed=seed + _EPS_SEED_OFFSET)


def _axes(cfg, *extra):
    """Sorted tuples (M, k, layout, eps_mode, eps_min, *extra, seed)."""
    return sorted(itertools.product(cfg.M, cfg.k, cfg.layout, cfg.eps_mode,
                                    cfg.eps_min, *extra, cfg.seed))


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
    return f"{cfg.matrix}_M{M}_k{k}_{layout}_{eps_min:g}"


def validate_instances(cfg: types.SimpleNamespace) -> dict:
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
                raise ConfigError(
                    f"export-matrix instances [{owners[stem]}] and [{label}] "
                    f"would both write {stem}.mtx; narrow the sweep "
                    "(file names omit eps_mode and seed)")
            owners[stem] = label
    meshes, placed, layouts = {}, {}, {}
    for ax in _axes(cfg):
        M, k, layout, eps_mode, eps_min, seed = ax
        if M not in meshes:
            meshes[M] = build_mesh(M)
        key = _operator_key(ax)
        if key not in placed:
            placed[key] = _place(cfg, meshes[M], k, layout, seed)
        lay = layouts[ax] = _assign(cfg, placed[key], eps_mode, eps_min, seed)
        if cfg.command == "spectrum":
            check_dense_size(lay)
    return layouts


# ---------------------------------------------------------------------------
# workers

def _sweep(cfg, layouts, instances, threads):
    """(_run_solve row per instance in the given order, H_A set-ups) of
    instances (method, M, k, layout, eps_mode, eps_min, delta, seed).

    The instances of one operator key, wherever they sit, form one worker
    task; tasks run in order of first appearance, and a task runs its
    instances H_A kind by H_A kind, in the same order.  A kind's first
    instance builds its eps-free H, which is freed before the next kind's is
    built; a returning task pops its eps copies from layouts, and with them
    the placement's ordering, A and blocks.  So there is one set-up per
    (placement, H_A kind) and one placement and H_A per worker, whatever the
    thread count.  A failing sweep raises the first failure in this
    execution order.
    """
    tasks = {}      # operator key -> H_A kind -> instance indices
    for i, (method, *ax) in enumerate(instances):
        tasks.setdefault(_operator_key(ax), {}).setdefault(
            _ha(cfg, method), []).append(i)
    work = list(tasks.values())

    def task(kinds):
        rows = []       # (instance index, row)
        for indices in kinds.values():
            shared = types.SimpleNamespace(H=None, F=None)
            for i in indices:
                lay = layouts[_layout_key(instances[i][1:])]
                rows.append((i, _run_solve(cfg, lay, shared, instances[i])))
        for i, _ in rows:   # eps copies that no other task reads
            layouts.pop(_layout_key(instances[i][1:]), None)
        return rows

    rows = [None] * len(instances)
    for results in _pool_map(task, work, threads):
        for i, row in results:
            rows[i] = row
    return rows, sum(map(len, work))


def _ha(cfg, method):
    """The H_A kind of method's runs: cost's _COST_HA, else solve's ha."""
    return _COST_HA[method] if cfg.command == "cost" else cfg.ha


def _run_solve(cfg, lay, shared, instance):
    """One solve of the instance on its layout.  shared holds what the
    instances of one task share, built by the first that needs it: the H
    (eps free) and, with rhs = one, the right-hand side."""
    method, M, k, layout, eps_mode, eps_min, delta, seed = instance
    kind = _ha(cfg, method)
    ordering, A, blocks, op = build_problem(lay.mesh, lay)
    try:
        if shared.H is None:
            shared.H = build_block_preconditioner(A, blocks, kind)
        if cfg.rhs == "one":
            if shared.F is None:
                shared.F = np.concatenate((assemble_load(
                    lay.mesh, 1.0, ordering=ordering), np.zeros(op.n)))
            kwargs = {"F": shared.F}
        elif method == "pu":    # random guess: p0 on the inclusions for PU
            kwargs = {"p0": random_guess(op.n, seed)}
        else:
            kwargs = {"z0": random_guess(op.size, seed)}
        report = _METHODS[method](op, shared.H, delta=delta,
                                  max_iter=cfg.max_iter, **kwargs)
    except _SOLVER_ERRORS as exc:   # name the instance
        raise type(exc)(
            f"{exc} [method={method} M={M} k={k} {layout} eps_min={eps_min:g} "
            f"eps_mode={eps_mode} delta={delta:g} seed={seed}]") from exc
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
    rep = verify_intervals(lay, pencil=pencil)
    row = {
        "M": M, "k": k, "layout": layout, "eps_mode": eps_mode,
        "eps_min": eps_min, "eps_max": rep.eps_max, "pencil": pencil,
        "ha": "exact", "seed": seed,     # the dense check's H_A is A^{-1}
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

@contextlib.contextmanager
def _open_outputs(out_dir, *names):
    """Open the named output files for writing before any instance runs, so
    that one which cannot be written fails at once.  If the body raises, the
    files are closed and removed: no partial file looks like an output."""
    paths = [os.path.join(out_dir, name) for name in names]
    handles = []
    try:
        for path in paths:
            handles.append(open(path, "w", encoding="utf-8", newline=""))
        yield handles
    except BaseException:
        for fh, path in zip(handles, paths):
            fh.close()
            os.remove(path)
        raise
    finally:
        for fh in handles:
            fh.close()


def _write_csv(fh, schema, fieldnames, rows):
    fh.write(f"# schema={schema}\n")
    fh.write(",".join(fieldnames) + "\n")
    for row in rows:
        fh.write(",".join(str(row[f]) for f in fieldnames) + "\n")


def write_manifest(fh, cfg, n_instances, ha_setups=None):
    """Run record beside the CSVs, written to the open manifest.json fh:
    environment (BLAS thread variables as strings, None when unset),
    timestamp and the H_A set-ups of a solve or cost sweep (None for the
    other subcommands)."""
    manifest = {
        "schema": "saddleprec.manifest.v1",
        "command": cfg.command,
        "config_sha256": cfg.config_sha,
        "version": __version__,
        "seeds": list(cfg.seed),
        "seed_override": cfg.seed_override,
        "instances": n_instances,
        "ha_setups": ha_setups,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    json.dump(manifest, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _pool_map(worker, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [worker(it) for it in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items))


# ---------------------------------------------------------------------------
# subcommand drivers

def cmd_solve(cfg, layouts: dict, out_dir: str, threads: int) -> int:
    instances = sorted((method, *ax) for method in cfg.method
                       for ax in _axes(cfg, cfg.delta))
    fields = ["method", "M", "k", "layout", "removal", "eps_mode", "eps_min",
              "eps_max", "delta", "ha", "seed", "iterations", "converged",
              "stop_rule", "a_applies", "ha_applies", "total_applies",
              "final_ratio", "monotone"]
    with _open_outputs(out_dir, "solve.csv", "manifest.json") as (fh, man):
        rows, ha_setups = _sweep(cfg, layouts, instances, threads)
        _write_csv(fh, SOLVE_SCHEMA, fields, rows)
        write_manifest(man, cfg, len(instances), ha_setups)
    print(f"solve: {len(rows)} runs -> {fh.name}")
    return EXIT_OK


def cmd_spectrum(cfg, layouts: dict, out_dir: str, threads: int) -> int:
    axes = _axes(cfg, cfg.pencil)
    fields = ["M", "k", "layout", "eps_mode", "eps_min", "eps_max", "pencil",
              "ha", "seed", "dim", "a0", "b0", "r_max", "mu_check1",
              "mu_hat1", "mu_check2", "mu_hat2", "lam_min", "lam_max",
              "n_minus_one", "n_plus_one", "n_viol_strict", "verdict_strict",
              "n_viol", "verdict"]
    eig_fields = ["M", "k", "layout", "eps_mode", "eps_min", "pencil", "seed",
                  "index", "eigenvalue", "in_stated", "in_envelope"]
    with _open_outputs(out_dir, "spectrum.csv", "spectrum_eigs.csv",
                       "manifest.json") as (fh, eig_fh, man):
        results = _pool_map(lambda ax: _run_spectrum(
            cfg, layouts[_layout_key(ax)], ax), axes, threads)
        rows = [r for r, _ in results]
        _write_csv(fh, SPECTRUM_SCHEMA, fields, rows)
        _write_csv(eig_fh, EIGS_SCHEMA, eig_fields,
                   [er for _, ers in results for er in ers])
        write_manifest(man, cfg, len(axes))

    print(f"spectrum: {len(rows)} instances -> {fh.name}")
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


def cmd_cost(cfg, layouts: dict, out_dir: str, threads: int) -> int:
    axes = _axes(cfg, cfg.delta)
    # the solve runs with methods inside each axes tuple, one row per tuple
    instances = [(m, *ax) for ax in axes for m in cfg.method]
    # eps_min first, then every other axis that varies, in _axes order
    labels = [4] + [i for i, values in enumerate(zip(*axes))
                    if i != 4 and len(set(values)) > 1]
    header = [("M", "k", "layout", "eps_mode", "eps_min", "delta", "seed")[i]
              for i in labels]
    for m in cfg.method:
        header.append(f"{m.upper()} iters (H_A={_ha(cfg, m)})")
        header.append(f"{m.upper()} A+H_A")
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    with _open_outputs(out_dir, "cost.md", "manifest.json") as (fh, man):
        results, ha_setups = _sweep(cfg, layouts, instances, threads)
        rows = iter(results)
        for ax in axes:
            cells = [f"{ax[i]:g}" if isinstance(ax[i], float) else str(ax[i])
                     for i in labels]
            for row in itertools.islice(rows, len(cfg.method)):
                cells.append(str(row["iterations"]))
                cells.append(f"{row['total_applies']} "
                             f"({row['a_applies']}+{row['ha_applies']})")
            lines.append("| " + " | ".join(cells) + " |")
        table = "\n".join(lines)
        fh.write(f"# Application counts (M={cfg.M}, k={cfg.k}, "
                 f"delta={cfg.delta})\n\n")
        fh.write(table + "\n")
        write_manifest(man, cfg, len(axes), ha_setups)
    print(table)
    print(f"cost: {len(axes)} instance(s) -> {fh.name}")
    return EXIT_OK


def cmd_export_matrix(cfg, layouts: dict, out_dir: str, threads: int) -> int:
    axes = _axes(cfg)
    stiffness = {}                      # A per operator key
    # the index of each operator key's last tuple, after which its A goes
    last = {_operator_key(ax): i for i, ax in enumerate(axes)}
    with _open_outputs(out_dir, "manifest.json") as (man,):
        for i, ax in enumerate(axes):
            M, k, layout, eps_mode, eps_min, seed = ax
            lay = layouts.pop(ax)
            if cfg.matrix == "sigma":
                mat = assemble_sigma_matrix(lay)
            elif cfg.matrix == "stiffness":
                key = _operator_key(ax)
                if key not in stiffness:
                    stiffness[key] = assemble_stiffness(
                        lay.mesh, build_ordering(lay))
                mat = (stiffness.pop(key) if last[key] == i
                       else stiffness[key])
            else:
                mat = build_problem(lay.mesh, lay)[3].to_sparse()
            path = os.path.join(out_dir, _export_stem(cfg, ax) + ".mtx")
            write_matrix_market(path, mat,
                                comment=f"{cfg.matrix} M={M} k={k} {layout} "
                                        f"eps_min={eps_min:g} seed={seed}")
            print(f"export: {mat.shape[0]}x{mat.shape[1]}, "
                  f"{mat.nnz} stored entries -> {path}")
            del mat     # before the next tuple builds its own
        write_manifest(man, cfg, len(axes))
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
        _admit("threads", args.threads, _POSITIVE_INT, "--threads")
        cfg = build_config(args.command, *parse_config(args.config),
                           seed_override=args.seed)
        layouts = validate_instances(cfg)
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[args.command](cfg, layouts, args.out, args.threads)
    except (ConfigError, MeshError, LayoutError, ParameterError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
