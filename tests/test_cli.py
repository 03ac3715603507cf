import hashlib
import importlib
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy
import scipy.io

from saddleprec import cli
from saddleprec.cli import (
    main, parse_config, build_config, ConfigError,
    EXIT_OK, EXIT_ERROR, EXIT_VERIFY,
)
from saddleprec.precond import ContractViolationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# schema=")
    header = lines[1].split(",")
    return lines[0], [dict(zip(header, row.split(",")))
                      for row in lines[2:]]


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_config_happy_path(tmp_path):
    cfg = _write(tmp_path / "a.cfg", """
# comment line
M = 8, 16
delta = 1e-6   # trailing comment
method = pu
""")
    raw = parse_config(cfg)
    assert raw == {"M": "8, 16", "delta": "1e-6", "method": "pu"}


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.cfg"))
    bad = _write(tmp_path / "b.cfg", "M 8\n")
    with pytest.raises(ConfigError, match="b.cfg:1"):
        parse_config(bad)
    dup = _write(tmp_path / "c.cfg", "M = 8\nM = 16\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(dup)


def test_build_config_rejects_unknown_keys(tmp_path):
    cfg = _write(tmp_path / "a.cfg", "Ms = 8\n")
    with pytest.raises(ConfigError, match="unknown config key.*Ms"):
        build_config("solve", parse_config(cfg), cfg)


def test_build_config_validates_values(tmp_path):
    for text, match in [("method = sor\n", "unknown method"),
                        ("layout = spiral\n", "unknown layout"),
                        ("eps_mode = banded\n", "unknown eps_mode"),
                        ("rhs = two\n", "unknown rhs"),
                        ("M = eight\n", "config key 'M'")]:
        cfg = _write(tmp_path / "bad.cfg", text)
        with pytest.raises(ConfigError, match=match):
            build_config("solve", parse_config(cfg), cfg)


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["solve", "--config", missing]) == EXIT_ERROR
    bad = _write(tmp_path / "bad.cfg", "method = sor\n")
    assert main(["solve", "--config", bad]) == EXIT_ERROR
    # unknown subcommands surface through the parser override as exit 1,
    # keeping exit 2 reserved for verification failures
    assert main(["frobnicate", "--config", bad]) == EXIT_ERROR
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solve subcommand


def test_solve_sweep_csv(tmp_path, capsys):
    cfg = _write(tmp_path / "solve.cfg", """
method = pu, pl
M = 8
eps_min = 1e-2, 1e-4
delta = 1e-6
seed = 0
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    schema, rows = _read_rows(out / "solve.csv")
    assert schema == "# schema=saddleprec.solve.v1"
    assert len(rows) == 4                 # 2 methods x 2 contrasts
    for row in rows:
        assert row["converged"] == "True"
        assert row["monotone"] == "True"
        assert float(row["final_ratio"]) <= 1e-6
        assert int(row["iterations"]) > 0
    pu_iters = {int(r["iterations"]) for r in rows if r["method"] == "pu"}
    assert max(pu_iters) - min(pu_iters) <= 2   # contrast robustness
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "saddleprec.manifest.v1"
    assert manifest["command"] == "solve"
    assert manifest["instances"] == 4
    assert len(manifest["config_sha256"]) == 64
    capsys.readouterr()


def test_solve_deterministic_across_threads(tmp_path, capsys):
    cfg = _write(tmp_path / "det.cfg", """
method = pu, pl, pcgk
M = 8
eps_min = 1e-2, 1e-4
seed = 0, 1
""")
    outputs = []
    for threads, sub in (("1", "t1"), ("4", "t4"), ("1", "t1b")):
        out = tmp_path / sub
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == EXIT_OK
        outputs.append((out / "solve.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()


def test_solve_seed_override_and_rhs_one(tmp_path, capsys):
    cfg = _write(tmp_path / "one.cfg", """
method = pl
M = 8
rhs = one
seed = 0, 1, 2
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == EXIT_OK
    _, rows = _read_rows(out / "solve.csv")
    assert len(rows) == 1                 # the override collapses the axis
    assert rows[0]["seed"] == "7"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [7] and manifest["seed_override"] == 7
    capsys.readouterr()


def test_solve_empty_method_axis(tmp_path, capsys):
    cfg = _write(tmp_path / "empty.cfg", "method =\nM = 8\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    schema, rows = _read_rows(out / "solve.csv")
    assert rows == []
    capsys.readouterr()


def test_solve_random_layout_and_contrast(tmp_path, capsys):
    cfg = _write(tmp_path / "rand.cfg", """
method = pu
M = 16
layout = random
removal = 2
eps_mode = random
eps_min = 1e-4
seed = 3
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, rows = _read_rows(out / "solve.csv")
    assert rows[0]["removal"] == "2"
    assert rows[0]["converged"] == "True"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# spectrum subcommand


def test_spectrum_pass_and_csv(tmp_path, capsys):
    cfg = _write(tmp_path / "spec.cfg", """
M = 8
eps_min = 1e-2, 1e-4
pencil = preconditioner, ideal
""")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("[PASS]") == 4
    schema, rows = _read_rows(out / "spectrum.csv")
    assert schema == "# schema=saddleprec.spectrum.v1"
    assert len(rows) == 4
    for row in rows:
        assert row["verdict"] == "PASS"
        # the literal two-interval set misses the -1 cluster, recorded
        # honestly in the strict columns
        assert row["verdict_strict"] == "FAIL"
        assert int(row["n_viol_strict"]) >= int(row["n_minus_one"])
        np.testing.assert_allclose(float(row["mu_hat2"]),
                                   (1 + np.sqrt(5)) / 2, atol=1e-10)
        np.testing.assert_allclose(float(row["a0"]), 3 / 14, atol=1e-8)
    _, eig_rows = _read_rows(out / "spectrum_eigs.csv")
    assert len(eig_rows) == sum(int(r["dim"]) for r in rows)


def test_spectrum_corrupted_coupling_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "corrupt.cfg", """
M = 8
corrupt_q = true
""")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout and "FAILED verification" in stdout
    _, rows = _read_rows(out / "spectrum.csv")
    assert rows[0]["verdict"] == "FAIL"
    assert int(rows[0]["n_viol"]) > 0


def test_spectrum_rejects_oversize_instance(tmp_path, capsys):
    cfg = _write(tmp_path / "big.cfg", "M = 64\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "dense verification" in err and "lanczos_extremes" in err


# ---------------------------------------------------------------------------
# cost subcommand


def test_cost_table_and_accounting(tmp_path, capsys):
    cfg = _write(tmp_path / "cost.cfg", """
method = pu, pl
M = 16
eps_min = 1e-2, 1e-4
delta = 1e-6
pl_ha = exact
""")
    out = tmp_path / "out"
    assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    table = (out / "cost.md").read_text().splitlines()
    body = [l for l in table if l.startswith("|") and "---" not in l]
    header, data = body[0], body[1:]
    assert "PU iters (H_A=cg)" in header and "PL iters (H_A=exact)" in header
    assert len(data) == 2
    for line in data:
        cells = [c.strip() for c in line.strip("|").split("|")]
        pl_iters = int(cells[3])
        total, rest = cells[4].split(" ", 1)
        a, ha = rest.strip("()").split("+")
        # exact-H_A Lanczos costs one apply and one H per iteration + setup
        assert int(a) == pl_iters + 1 and int(ha) == pl_iters + 1
        assert int(total) == int(a) + int(ha)
    assert header.replace(" ", "") in stdout.replace(" ", "")


def test_cost_single_method(tmp_path, capsys):
    cfg = _write(tmp_path / "cost1.cfg", """
method = pcgk
M = 8
eps_min = 1e-4
""")
    out = tmp_path / "out"
    assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_OK
    body = [l for l in (out / "cost.md").read_text().splitlines()
            if l.startswith("|") and "---" not in l]
    assert body[0].count("|") == 4        # eps_min + two PCGK columns
    capsys.readouterr()


def test_cost_solver_error_names_instance(tmp_path, capsys):
    cfg = _write(tmp_path / "cost_fail.cfg", """
method = pl
M = 8
max_iter = 1
""")
    out = tmp_path / "out"
    assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "solver error: PL did not reach" in err
    assert "[method=pl M=8 k=2 periodic eps_min=0.0001" in err


# ---------------------------------------------------------------------------
# operators shared across the instances of a sweep

# three methods x two layouts x three contrasts: 18 solve instances on two
# layouts, which the sorted order visits as six runs of one operator key
_CONTRAST = """
method = pu, pl, pcgk
M = 16
layout = periodic, random
eps_min = 1e-2, 1e-4, 1e-6
"""


def _count_calls(monkeypatch, name, calls):
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)


def test_solve_builds_a_and_ha_once_per_run_of_a_key(tmp_path, capsys,
                                                     monkeypatch):
    calls = []
    for name in ("build_block_preconditioner", "build_problem",
                 "assign_epsilon"):
        _count_calls(monkeypatch, name, calls)
    cfg = _write(tmp_path / "contrast.cfg", _CONTRAST)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert calls.count("build_block_preconditioner") == 6
    assert calls.count("build_problem") == 6
    # one eps assignment per instance, plus one per distinct layout checked
    # before the runs (2 layouts x 3 contrasts)
    assert calls.count("assign_epsilon") == 18 + 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ha_setups"] == 6
    capsys.readouterr()


def test_cost_shares_one_exact_lu_between_pl_and_pcgk(tmp_path, capsys,
                                                      monkeypatch):
    kinds = []
    original = cli.build_block_preconditioner

    def recorded(A, blocks, ha_kind="exact", **opts):
        kinds.append(ha_kind)
        return original(A, blocks, ha_kind, **opts)

    monkeypatch.setattr(cli, "build_block_preconditioner", recorded)
    used = {}
    for method, solver in list(cli._METHODS.items()):
        def spy(op, precond, *args, _method=method, _solver=solver, **kw):
            used.setdefault(_method, set()).add(id(precond.a_inv))
            return _solver(op, precond, *args, **kw)
        monkeypatch.setitem(cli._METHODS, method, spy)
    # the axes of demos/configs/cost_table.cfg on a smaller mesh
    cfg = _write(tmp_path / "cost.cfg", """
method = pu, pl, pcgk
M = 16
k = 2
eps_min = 1e-2, 1e-4, 1e-6
delta = 1e-6
""")
    out = tmp_path / "out"
    assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_OK
    # one run of one key: one inner-CG H_A for PU, one exact LU for both
    # Krylov methods, whatever the contrast
    assert sorted(kinds) == ["cg", "exact"]
    assert used["pl"] == used["pcgk"] and len(used["pl"]) == 1
    assert used["pu"].isdisjoint(used["pl"]) and len(used["pu"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ha_setups"] == 2
    capsys.readouterr()


def test_sweep_holds_at_most_one_ha_and_frees_it(tmp_path, capsys,
                                                 monkeypatch):
    built = []
    alive_at_build = []
    original = cli.build_block_preconditioner
    original_problem = cli.build_problem

    def alive():
        return sum(ref() is not None for ref in built)

    def tracked(*args, **kwargs):
        alive_at_build.append(alive())
        precond = original(*args, **kwargs)
        built.append(weakref.ref(precond.a_inv))
        return precond

    def problem(*args, **kwargs):
        alive_at_build.append(alive())
        return original_problem(*args, **kwargs)

    monkeypatch.setattr(cli, "build_block_preconditioner", tracked)
    monkeypatch.setattr(cli, "build_problem", problem)
    cfg = _write(tmp_path / "contrast.cfg", _CONTRAST)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == EXIT_OK
    # a key's A and H_A are freed before the next key's A is built
    assert len(built) == 6 and alive_at_build == [0] * 12
    assert all(ref() is None for ref in built)      # nothing outlives main
    capsys.readouterr()


def test_failing_ha_build_names_its_instance(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ContractViolationError("H_A refused")

    monkeypatch.setattr(cli, "build_block_preconditioner", refuse)
    cfg = _write(tmp_path / "s.cfg", "method = pl\nM = 8\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "solver error: H_A refused [method=pl M=8 k=2 periodic" in err


def test_contrast_sweep_csv_matches_the_benchmark_reference(tmp_path,
                                                             monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    workloads = importlib.import_module("bench.workloads")
    with open(os.path.join(ROOT, "bench", "reference", "contrast-sweep.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)["0"]["outputs"]["solve_csv_sha256"]
    cfg = _write(tmp_path / "contrast.cfg", workloads.CONTRAST_CONFIG.format(
        M=128, removal=512, delta=workloads.DELTA))
    out = tmp_path / "out"
    # the reference was recorded with one BLAS thread; the last digits of
    # final_ratio follow the BLAS thread count, which only a fresh process
    # can set
    path = [os.path.join(ROOT, "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update({var: "1" for var in ("OMP_NUM_THREADS",
                                     "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
    subprocess.run([sys.executable, "-m", "saddleprec.cli", "solve",
                    "--config", cfg, "--out", str(out), "--seed", "0"],
                   env=env, check=True, capture_output=True)
    data = (out / "solve.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == expected


@pytest.mark.parametrize("command,output", [("solve", "solve.csv"),
                                            ("cost", "cost.md")])
def test_outputs_identical_across_threads_with_many_keys(tmp_path, capsys,
                                                         command, output):
    cfg = _write(tmp_path / "keys.cfg", """
method = pu, pl, pcgk
M = 16
layout = periodic, random
eps_min = 1e-2, 1e-4
seed = 0, 1
""")
    outputs = []
    for threads, sub in (("1", "t1"), ("4", "t4"), ("1", "t1b")):
        out = tmp_path / sub
        assert main([command, "--config", cfg, "--out", str(out),
                     "--threads", threads]) == EXIT_OK
        outputs.append((out / output).read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()


def test_manifest_records_environment_outside_the_csv(tmp_path, capsys):
    cfg = _write(tmp_path / "s.cfg", "method = pl\nM = 8\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["ha_setups"] == 1
    csv = (out / "solve.csv").read_text()
    for key in ("numpy", "scipy", "cpu_count", "ha_setups", "timestamp"):
        assert key not in csv
    spec = _write(tmp_path / "sp.cfg", "M = 8\n")
    assert main(["spectrum", "--config", spec,
                 "--out", str(tmp_path / "sp")]) == EXIT_OK
    manifest = json.loads((tmp_path / "sp" / "manifest.json").read_text())
    assert manifest["ha_setups"] is None
    capsys.readouterr()


# ---------------------------------------------------------------------------
# export-matrix subcommand


def test_export_matrix_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path / "exp.cfg", """
M = 8
matrix = saddle
eps_min = 1e-4
""")
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg, "--out", str(out)]) == EXIT_OK
    path = out / "saddle_M8_k2_periodic_0.0001.mtx"
    assert path.exists()
    mat = scipy.io.mmread(str(path)).tocsr()
    assert mat.shape == (85, 85)          # 49 interior + 36 inclusion nodes
    # symmetric indefinite block structure survives the round trip
    asym = abs(mat - mat.T).max()
    assert asym == 0.0
    capsys.readouterr()


def test_export_matrix_stiffness_and_custom_name(tmp_path, capsys):
    cfg = _write(tmp_path / "exp2.cfg", """
M = 8
matrix = stiffness
name = plain_poisson
""")
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg, "--out", str(out)]) == EXIT_OK
    mat = scipy.io.mmread(str(out / "plain_poisson.mtx")).tocsr()
    assert mat.shape == (49, 49)
    assert mat.diagonal().max() == 4.0
    capsys.readouterr()


def test_manifest_sha_stable_across_runs(tmp_path, capsys):
    cfg = _write(tmp_path / "s.cfg", "M = 8\nmethod = pu\n")
    shas = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        shas.append(json.loads((out / "manifest.json").read_text())
                    ["config_sha256"])
    assert shas[0] == shas[1]
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "M = 16\nmatrix = sigma\neps_mode = random\nseed = 0, 1\n",
    "M = 8, 16\nname = mine\n",
], ids=["seed-axis", "fixed-name"])
def test_export_matrix_refuses_colliding_files(tmp_path, capsys, text):
    cfg = _write(tmp_path / "clash.cfg", text)
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg,
                 "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: export-matrix instances [M=" in err
    assert "would both write" in err
    assert not out.exists()             # refused before anything is written


@pytest.mark.parametrize("command,text,match", [
    ("solve", "ha = exact\nha_steps = 3\n",
     "config key ha: H_A kind 'exact' takes no options, got steps"),
    ("solve", "ha = cg\nha_steps = 0\n", "at least 1 step, got 0"),
    ("solve", "ha = cg\nha_fill_factor = 0\n",
     "fill factor must be positive, got 0.0"),
    ("solve", "ha = foo\n", "unknown ha 'foo'; use exact|cg|diagonal"),
    ("solve", "ha = cg\nha_base = ilu\n", "unknown config key(s) for solve: ha_base;"),
    ("spectrum", "ha = cg\n", "unknown ha 'cg'; use exact|diagonal"),
    ("cost", "pl_ha_steps = 4\n",
     "config key pl_ha: H_A kind 'exact' takes no options, got steps"),
], ids=["exact-with-option", "cg-zero-steps", "cg-zero-fill", "unknown-kind",
        "ha-base-gone", "spectrum-cg", "cost-option-on-exact"])
def test_ha_config_refused_before_any_run(tmp_path, capsys, command, text,
                                          match):
    cfg = _write(tmp_path / "ha.cfg", "M = 8\n" + text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert match in capsys.readouterr().err
    assert not out.exists()


# the subcommand each shipped sample config is documented with
_SHIPPED = {"solve_sweep.cfg": "solve", "spectrum_check.cfg": "spectrum",
            "cost_table.cfg": "cost", "export_saddle.cfg": "export-matrix"}
_CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


def test_every_shipped_config_is_covered():
    assert sorted(os.listdir(_CONFIG_DIR)) == sorted(_SHIPPED)


@pytest.mark.parametrize("name", sorted(_SHIPPED))
def test_shipped_config_runs(tmp_path, capsys, name):
    cfg = os.path.join(_CONFIG_DIR, name)
    out = tmp_path / "out"
    assert main([_SHIPPED[name], "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "manifest.json").exists()
    capsys.readouterr()
