import functools
import hashlib
import importlib
import json
import os
import re
import weakref

import numpy as np
import pytest
import scipy
import scipy.io

from saddleprec import assembly, cli, mesh, precond, spectral
from saddleprec.cli import (
    main, parse_config, build_config, ConfigError,
    EXIT_OK, EXIT_ERROR, EXIT_VERIFY,
)
from saddleprec.precond import ContractViolationError

from saddle_problems import run_with_one_blas_thread

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
    raw, sha = parse_config(cfg)
    assert raw == {"M": "8, 16", "delta": "1e-6", "method": "pu"}
    with open(cfg, "rb") as fh:
        assert sha == hashlib.sha256(fh.read()).hexdigest()


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.cfg"))
    bad = _write(tmp_path / "b.cfg", "M 8\n")
    with pytest.raises(ConfigError, match="b.cfg:1"):
        parse_config(bad)
    dup = _write(tmp_path / "c.cfg", "M = 8\nM = 16\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(dup)
    keyless = _write(tmp_path / "d.cfg", "M = 8\n= 8\n")
    with pytest.raises(ConfigError, match="d.cfg:2: empty key"):
        parse_config(keyless)
    # lines end at \r\n and at a lone \r, as in text-mode reading
    (tmp_path / "e.cfg").write_bytes(b"M = 8\r\nk = 2\r= 8\n")
    with pytest.raises(ConfigError, match="e.cfg:3: empty key"):
        parse_config(str(tmp_path / "e.cfg"))


def test_spectrum_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # the mark is dropped before the keys are read; the manifest still
    # hashes the bytes of the file, mark included
    text = b"M = 8\npencil = preconditioner, ideal\n"
    outputs = {}
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(data)
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"]) == EXIT_OK
        outputs[name] = [(out / csv).read_bytes()
                         for csv in ("spectrum.csv", "spectrum_eigs.csv")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(data).hexdigest()
    assert outputs["bom"] == outputs["plain"]
    assert parse_config(str(tmp_path / "bom.cfg"))[0] == {
        "M": "8", "pencil": "preconditioner, ideal"}
    capsys.readouterr()


def test_solve_reads_its_config_once(tmp_path, capsys, monkeypatch):
    # so the manifest's config_sha256 hashes the bytes that were parsed
    cfg = tmp_path / "once.cfg"
    cfg.write_bytes(b"method = pl\r\nM = 8\r\n")
    opens = []
    real_open = open

    def counting(file, *args, **kwargs):
        if file == str(cfg):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    assert len(opens) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(
        cfg.read_bytes()).hexdigest()
    capsys.readouterr()


def test_build_config_rejects_unknown_keys(tmp_path):
    cfg = _write(tmp_path / "a.cfg", "Ms = 8\n")
    with pytest.raises(ConfigError, match="unknown config key.*Ms"):
        build_config("solve", *parse_config(cfg))


def test_build_config_validates_values(tmp_path):
    for text, match in [("method = sor\n",
                         "unknown method 'sor'; use pu|pl|pcgk"),
                        ("layout = spiral\n", "unknown layout"),
                        ("eps_mode = banded\n", "unknown eps_mode"),
                        ("rhs = two\n", "unknown rhs"),
                        ("M = eight\n", "config key 'M'"),
                        ("M = 8, 8\n", "config key 'M' repeats 8"),
                        ("eps_min = 1e-2, 0.01\n",
                         "config key 'eps_min' repeats 0.01"),
                        ("method = pl, pu, pl\n",
                         "config key 'method' repeats 'pl'")]:
        cfg = _write(tmp_path / "bad.cfg", text)
        with pytest.raises(ConfigError, match=re.escape(match)):
            build_config("solve", *parse_config(cfg))


def test_key_table_is_the_only_source_of_keys():
    accepted = set().union(*map(cli._allowed_keys, cli._ALL))
    # every table key is accepted somewhere, and no other key is
    assert accepted == set(cli._KEYS)
    # only solve names an H_A kind; cost fixes one per method
    ha = {key for key in cli._KEYS if key.endswith("ha")}
    assert {command: cli._allowed_keys(command) & ha
            for command in cli._ALL} == {
        "solve": {"ha"}, "spectrum": set(), "cost": set(),
        "export-matrix": set()}
    assert set(cli._COST_HA) == set(cli._METHODS)


def _backticked_keys(text):
    """Backticked names of text outside parenthesized value lists."""
    return re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", text))


def test_readme_names_only_keys_the_subcommand_accepts():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    # the subcommand table: | `command` | output | keys |
    rows = re.findall(r"^\| `([a-z-]+)` \| .* \| (.*) \|$", readme, re.M)
    assert sorted(command for command, _ in rows) == sorted(cli._ALL)
    common = re.search(r"^Common axes: (.*?)\. ", readme, re.M | re.S)
    common = set(_backticked_keys(common.group(1)))
    assert common and all(common <= cli._allowed_keys(command)
                          for command in cli._ALL)
    for command, keys in rows:
        named = set(_backticked_keys(keys))
        assert named and named <= cli._allowed_keys(command), command
        # and the other way: every accepted key is documented
        assert cli._allowed_keys(command) <= named | common, command


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["solve", "--config", missing]) == EXIT_ERROR
    bad = _write(tmp_path / "bad.cfg", "method = sor\n")
    assert main(["solve", "--config", bad]) == EXIT_ERROR
    # unknown subcommands surface through the parser override as exit 1,
    # keeping exit 2 reserved for verification failures
    assert main(["frobnicate", "--config", bad]) == EXIT_ERROR
    capsys.readouterr()


def _config_not_utf8(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("M = 8\n# gr\u00f6\u00dfe\n".encode("latin-1"))
    return str(cfg), tmp_path / "out"


def _out_is_a_file(tmp_path):
    out = tmp_path / "out"
    out.write_text("not a directory\n", encoding="utf-8")
    return _write(tmp_path / "a.cfg", "method = pl\nM = 8\n"), out


def _csv_is_a_directory(tmp_path):
    out = tmp_path / "out"
    (out / "solve.csv").mkdir(parents=True)
    return _write(tmp_path / "a.cfg", "method = pl\nM = 8\n"), out


def _manifest_is_a_directory(tmp_path):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    return _write(tmp_path / "a.cfg", "method = pl\nM = 8\n"), out


@pytest.mark.parametrize("setup", [_config_not_utf8, _out_is_a_file,
                                   _csv_is_a_directory,
                                   _manifest_is_a_directory],
                         ids=["config-not-utf8", "out-is-a-file",
                              "csv-is-a-directory",
                              "manifest-is-a-directory"])
def test_io_failure_is_an_error_line(tmp_path, capsys, monkeypatch, setup):
    solves = []
    for method, solver in list(cli._METHODS.items()):
        def spy(*args, _solver=solver, **kwargs):
            solves.append(1)
            return _solver(*args, **kwargs)
        monkeypatch.setitem(cli._METHODS, method, spy)
    cfg, out = setup(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # an output that cannot be opened fails before the first solve, and
    # leaves no other output behind
    assert solves == []
    assert not (out / "solve.csv").is_file()


@pytest.mark.parametrize("text,args,err", [
    ("seed = 0, -1\n", [], "error: config key 'seed' must be >= 0, got -1\n"),
    ("", ["--seed", "-1"], "error: --seed must be >= 0, got -1\n"),
    ("", ["--threads", "-4"], "error: --threads must be >= 1, got -4\n"),
], ids=["config-key", "flag", "threads-flag"])
def test_negative_seed_refused_before_any_run(tmp_path, capsys, text, args,
                                              err):
    cfg = _write(tmp_path / "seed.cfg", "method = pl\nM = 8\n" + text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 *args]) == EXIT_ERROR
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("command,text,err", [
    ("solve", "delta = -1\n", "'delta' must be in (0, 1), got -1.0"),
    ("cost", "delta = 1e-6, 1\n", "'delta' must be in (0, 1), got 1.0"),
    ("solve", "max_iter = 0\n", "'max_iter' must be >= 1, got 0"),
    ("solve", "eps_max = nan\n", "'eps_max' must be in (0, 1], got nan"),
    ("cost", "eps_max = -3\n", "'eps_max' must be in (0, 1], got -3.0"),
    ("spectrum", "eps_max = 2\n", "'eps_max' must be in (0, 1], got 2.0"),
], ids=["delta-negative", "delta-one", "max-iter-zero", "eps-max-nan",
        "eps-max-negative", "eps-max-above-one"])
def test_out_of_range_keys_refused_before_any_run(tmp_path, capsys, command,
                                                  text, err):
    cfg = _write(tmp_path / "range.cfg", "M = 8\n" + text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: config key {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,key", [
    ("solve", "M"), ("solve", "delta"), ("cost", "eps_min"),
    ("cost", "seed"), ("spectrum", "pencil"), ("spectrum", "layout"),
])
def test_empty_axis_refused_before_any_run(tmp_path, capsys, command, key):
    # only the method axis may be empty: any other empty axis runs nothing
    cfg = _write(tmp_path / "empty.cfg",
                 ("" if key == "M" else "M = 8\n") + f"{key} =\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: config key {key!r} lists no value\n")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["solve", "cost"])
def test_empty_method_axis_still_validates_the_layout(tmp_path, capsys,
                                                      command):
    cfg = _write(tmp_path / "empty.cfg", "method =\nM = 16\nk = 3\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    assert ("error: periodic layouts require an even inclusion size k >= 2, "
            "got 3") in capsys.readouterr().err
    assert not out.exists()


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


def test_solve_removal_column_counts_the_default_removal(tmp_path, capsys):
    # without a removal key a random layout removes half of the periodic
    # layout's 16 inclusions at M = 16; a periodic one removes none
    cfg = _write(tmp_path / "rand.cfg", """
method = pl
M = 16
layout = periodic, random
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, rows = _read_rows(out / "solve.csv")
    assert [(r["layout"], r["removal"]) for r in rows] == [("periodic", "0"),
                                                          ("random", "8")]
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


def test_spectrum_corrupted_coupling_fails(tmp_path, capsys, monkeypatch):
    # the verifier's negative control is a library argument only
    monkeypatch.setattr(cli, "verify_intervals", functools.partial(
        spectral.verify_intervals, corrupt_q=True))
    cfg = _write(tmp_path / "corrupt.cfg", "M = 8\n")
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
    assert "dense verification" in err and "ritz_extremes" in err
    # the library refuses the same instance with the same message
    big = mesh.assign_epsilon(mesh.place_periodic(mesh.build_mesh(64), 2),
                              "uniform", epsilon=1e-4)
    with pytest.raises(mesh.ParameterError) as info:
        spectral.verify_intervals(big)
    assert err == f"error: {info.value}\n"


# ---------------------------------------------------------------------------
# cost subcommand


def test_cost_table_and_accounting(tmp_path, capsys):
    cfg = _write(tmp_path / "cost.cfg", """
method = pu, pl
M = 16
eps_min = 1e-2, 1e-4
delta = 1e-6
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


def _table(path):
    """Header cells and data rows (lists of cells) of a cost.md table."""
    body = [[c.strip() for c in line.strip("|").split("|")]
            for line in path.read_text().splitlines()
            if line.startswith("|") and "---" not in line]
    return body[0], body[1:]


def test_cost_rows_name_every_axis_that_varies(tmp_path, capsys):
    cfg = _write(tmp_path / "cost.cfg", """
method = pl
M = 8, 16
layout = periodic, random
seed = 0, 1
""")
    out = tmp_path / "out"
    assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, rows = _table(out / "cost.md")
    # eps_min first, then the varying axes in sweep order; k, eps_mode and
    # delta take one value each and get no column
    assert header == ["eps_min", "M", "layout", "seed",
                      "PL iters (H_A=exact)", "PL A+H_A"]
    assert [tuple(r[:4]) for r in rows] == [
        ("0.0001", M, layout, seed) for M in ("8", "16")
        for layout in ("periodic", "random") for seed in ("0", "1")]
    capsys.readouterr()


def test_cost_counts_equal_solve_counts(tmp_path, capsys):
    # cost runs PU on cg and the Krylov methods on exact; solve's ha gives
    # each method's counts on its kind
    axes = "M = 16\nlayout = periodic, random\neps_min = 1e-2, 1e-4\n"
    cost = _write(tmp_path / "cost.cfg", axes)
    assert main(["cost", "--config", cost,
                 "--out", str(tmp_path / "c")]) == EXIT_OK
    by_instance = {}
    for methods, ha in (("pu", "cg"), ("pl, pcgk", "exact")):
        solve = _write(tmp_path / f"{ha}.cfg",
                       axes + f"method = {methods}\nha = {ha}\n")
        assert main(["solve", "--config", solve,
                     "--out", str(tmp_path / ha)]) == EXIT_OK
        _, solved = _read_rows(tmp_path / ha / "solve.csv")
        by_instance.update({(r["method"], r["layout"], float(r["eps_min"])):
                            r for r in solved})
    header, rows = _table(tmp_path / "c" / "cost.md")
    assert header[:2] == ["eps_min", "layout"]
    assert len(rows) * 3 == len(by_instance) == 12
    for row in rows:
        for i, method in enumerate(("pu", "pl", "pcgk")):
            r = by_instance[(method, row[1], float(row[0]))]
            assert row[2 + 2 * i] == r["iterations"]
            assert row[3 + 2 * i] == (f"{r['total_applies']} "
                                      f"({r['a_applies']}+{r['ha_applies']})")
    capsys.readouterr()


@pytest.mark.parametrize("command,text,kinds", [
    ("solve", "method = pu, pl, pcgk\nha = cg\n", ["cg"]),
    ("cost", "method = pu, pl, pcgk\n", ["cg", "exact"]),
], ids=["solve-cg", "cost-defaults"])
def test_sweeps_pass_no_ha_option(tmp_path, capsys, monkeypatch, command,
                                  text, kinds):
    # the CLI names an H_A kind and nothing else: each set-up gets the
    # library's operator of that kind
    calls = []
    original = cli.build_block_preconditioner

    def recorded(A, blocks, *args, **kwargs):
        calls.append((args, kwargs))
        return original(A, blocks, *args, **kwargs)

    monkeypatch.setattr(cli, "build_block_preconditioner", recorded)
    cfg = _write(tmp_path / "ha.cfg", "M = 8\n" + text)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert sorted(args for args, _ in calls) == [(kind,) for kind in kinds]
    assert all(kwargs == {} for _, kwargs in calls)
    capsys.readouterr()


def test_cost_default_runs_at_m256(tmp_path, capsys):
    # a shipped default must run at the sizes the benchmark covers; PU on
    # the inner CG with ILU drop 1e-2 and fill 8 lost S-positivity here
    cfg = _write(tmp_path / "cost.cfg", "method = pu\nM = 256\n")
    out = tmp_path / "out"
    assert main(["cost", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, rows = _table(out / "cost.md")
    assert header[1] == "PU iters (H_A=cg)" and len(rows) == 1
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


def test_failing_instances_of_each_eps_mode_get_their_own_label(tmp_path,
                                                                capsys):
    labels = []
    for mode in ("uniform", "random"):
        cfg = _write(tmp_path / f"{mode}.cfg", "method = pl\nM = 8\n"
                     f"eps_mode = {mode}\nmax_iter = 1\n")
        assert main(["cost", "--config", cfg,
                     "--out", str(tmp_path / mode)]) == EXIT_ERROR
        labels.append(capsys.readouterr().err.rsplit("[", 1)[1])
    assert labels[0] != labels[1]
    for label, mode in zip(labels, ("uniform", "random")):
        assert f"eps_min=0.0001 eps_mode={mode} delta=" in label


# ---------------------------------------------------------------------------
# operators shared across the instances of a sweep

# three methods x two layouts x three contrasts: 18 solve instances on two
# placements; every method runs an exact H_A, so they form two tasks, one
# per placement
_CONTRAST = """
method = pu, pl, pcgk
M = 16
layout = periodic, random
eps_min = 1e-2, 1e-4, 1e-6
"""


def _count_calls(monkeypatch, name, calls, owner=cli):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


# two placements (periodic and random) of one mesh, each with two eps copies;
# per case, the subcommand, its extra keys, the block matrix sets it builds
# (a stiffness export needs none) and the H_A set-ups the sweep makes
_EVERY_COMMAND = ("M = 8\nlayout = periodic, random\nremoval = 2\n"
                  "eps_min = 1e-2, 1e-4\n")
_BUILT_ONCE = {
    "solve": ("solve", "method = pu, pl, pcgk\n", 2, 2),
    "cost": ("cost", "method = pu, pl, pcgk\n", 2, 4),
    "spectrum": ("spectrum", "pencil = preconditioner, ideal\n", 2, 0),
    "export-matrix": ("export-matrix", "", 2, 0),
    "export-stiffness": ("export-matrix", "matrix = stiffness\n", 0, 0),
}


@pytest.mark.parametrize("case", sorted(_BUILT_ONCE))
def test_each_part_of_an_instance_is_built_once(tmp_path, capsys, monkeypatch,
                                                case):
    calls = []
    names = ("build_mesh", "place_periodic", "place_random", "assign_epsilon",
             "assemble_stiffness", "assemble_inclusion_blocks",
             "build_block_preconditioner")
    # every module that holds a name, so no build escapes the count
    for owner in (cli, mesh, assembly, precond, spectral):
        for name in names:
            if hasattr(owner, name):
                _count_calls(monkeypatch, name, calls, owner)
    command, text, block_sets, ha_setups = _BUILT_ONCE[case]
    cfg = _write(tmp_path / "once.cfg", _EVERY_COMMAND + text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--threads", "1"]) == EXIT_OK
    # one mesh, two placements, four eps copies, and one A and at most one
    # set of block matrices per placement
    assert [calls.count(name) for name in names] == [1, 1, 1, 4, 2,
                                                     block_sets, ha_setups]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ha_setups"] == (ha_setups or None)
    capsys.readouterr()


def test_validation_places_each_operator_key_once(tmp_path, capsys,
                                                 monkeypatch):
    calls = []
    for name in ("build_mesh", "place_periodic", "place_random",
                 "assign_epsilon"):
        _count_calls(monkeypatch, name, calls)
    # no method: only the validation runs; 2 layouts x 3 contrasts x 2 seeds
    # over one periodic placement and one random placement per seed
    cfg = _write(tmp_path / "keys.cfg", "method =\nremoval = 2\nseed = 0, 1\n"
                 + _CONTRAST.replace("method = pu, pl, pcgk\n", ""))
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [calls.count(name) for name in ("build_mesh", "place_periodic",
                                           "place_random", "assign_epsilon")
            ] == [1, 1, 2, 12]
    # every tuple still gets its eps assignment, so the first bad one fails
    cfg = _write(tmp_path / "bad.cfg", "method =\nlayout = periodic, random\n"
                 "eps_min = 1e-2, 2\n")
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "bad")]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: uniform mode needs epsilon in (0, 1], got 2.0\n")


def test_random_only_sweep_counts_its_default_removal_without_placing(
        tmp_path, monkeypatch):
    calls = []
    for owner, name in ((mesh, "layout_from_cells"), (mesh, "place_periodic"),
                        (cli, "place_periodic")):
        _count_calls(monkeypatch, name, calls, owner)
    cfg = _write(tmp_path / "rand.cfg", "method =\nM = 16\nlayout = random\n"
                 "seed = 0, 1\n")
    layouts = cli.validate_instances(build_config("solve",
                                                  *parse_config(cfg)))
    # one placement per seed, each removing half of the 16 periodic sites,
    # and no periodic layout built just to count them
    assert "place_periodic" not in calls
    assert calls.count("layout_from_cells") == 2
    assert {(lay.m, lay.removal_count) for lay in layouts.values()} == {(8, 8)}


def test_cost_shares_one_exact_lu_between_pl_and_pcgk(tmp_path, capsys,
                                                      monkeypatch):
    kinds = []
    original = cli.build_block_preconditioner

    def recorded(A, blocks, ha_kind="exact", **opts):
        kinds.append(ha_kind)
        return original(A, blocks, ha_kind, **opts)

    monkeypatch.setattr(cli, "build_block_preconditioner", recorded)
    # the H_A objects themselves: an id() of a freed H_A may come back as
    # the id() of the next task's
    used = {}
    for method, solver in list(cli._METHODS.items()):
        def spy(op, precond, *args, _method=method, _solver=solver, **kw):
            used.setdefault(_method, []).append(precond.a_inv)
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
    # one placement: one inner-CG H_A for PU, one exact LU for both Krylov
    # methods, whatever the contrast
    assert sorted(kinds) == ["cg", "exact"]
    lu, cg = used["pl"][0], used["pu"][0]
    assert all(ha is lu for ha in used["pl"] + used["pcgk"])
    assert all(ha is cg for ha in used["pu"]) and cg is not lu
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ha_setups"] == 2
    capsys.readouterr()


def _run_tracking_ha(tmp_path, monkeypatch, command):
    """Run command over _CONTRAST on one thread; weak references to each
    H_A and A it built, and the H_A alive at each H_A build."""
    ha_refs, a_refs, alive_at_build = [], [], []
    original = cli.build_block_preconditioner
    original_stiffness = assembly.assemble_stiffness

    def tracked(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in ha_refs))
        precond = original(*args, **kwargs)
        ha_refs.append(weakref.ref(precond.a_inv))
        return precond

    def stiffness(*args, **kwargs):
        A = original_stiffness(*args, **kwargs)
        a_refs.append(weakref.ref(A))
        return A

    monkeypatch.setattr(cli, "build_block_preconditioner", tracked)
    monkeypatch.setattr(assembly, "assemble_stiffness", stiffness)
    cfg = _write(tmp_path / "contrast.cfg", _CONTRAST)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", "1"]) == EXIT_OK
    return ha_refs, a_refs, alive_at_build


def test_sweep_holds_at_most_one_ha_and_frees_it(tmp_path, capsys,
                                                 monkeypatch):
    ha_refs, a_refs, alive_at_build = _run_tracking_ha(tmp_path, monkeypatch,
                                                       "solve")
    # a task's H_A is freed before the next task builds its own
    assert len(ha_refs) == 2 and alive_at_build == [0] * 2
    # the layouts keep one A per placement until main returns, and nothing
    # outlives main
    assert len(a_refs) == 2
    assert all(ref() is None for ref in ha_refs + a_refs)
    capsys.readouterr()


def test_cost_never_holds_two_ha_at_once(tmp_path, capsys, monkeypatch):
    ha_refs, _, alive_at_build = _run_tracking_ha(tmp_path, monkeypatch,
                                                  "cost")
    # PU's inner-CG H_A and the Krylov methods' exact LU of a placement are
    # two tasks, so the LU is built only after the inner CG is freed
    assert len(ha_refs) == 4 and alive_at_build == [0] * 4
    assert all(ref() is None for ref in ha_refs)
    capsys.readouterr()


def test_rhs_one_builds_the_load_once_per_task(tmp_path, capsys, monkeypatch):
    calls = []
    _count_calls(monkeypatch, "assemble_load", calls)
    # one placement, one exact H_A: three methods x two contrasts, one task
    cfg = _write(tmp_path / "rhs.cfg", "method = pu, pl, pcgk\nM = 8\n"
                 "eps_min = 1e-2, 1e-6\nrhs = one\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(_read_rows(out / "solve.csv")[1]) == 6
    assert calls == ["assemble_load"]
    capsys.readouterr()


@pytest.mark.parametrize("command,named", [
    ("solve", "[method=pcgk M=8 k=2 periodic"),
    ("cost", "[method=pu M=8 k=2 periodic"),
])
def test_failing_sweep_names_the_same_instance_at_any_thread_count(
        tmp_path, capsys, command, named):
    # every solve fails, in every task of both placements: the error names
    # the first failure in execution order, whatever the worker count
    cfg = _write(tmp_path / "fail.cfg", "method = pu, pl, pcgk\nM = 8\n"
                 "layout = periodic, random\nremoval = 2\nmax_iter = 1\n")
    errors = []
    for threads in ("1", "4"):
        assert main([command, "--config", cfg, "--threads", threads,
                     "--out", str(tmp_path / threads)]) == EXIT_ERROR
        errors.append(capsys.readouterr().err)
        # the outputs opened before the sweep are removed
        assert os.listdir(tmp_path / threads) == []
    assert errors[0] == errors[1]
    assert errors[0].startswith("solver error: ") and named in errors[0]


def test_failing_ha_build_names_its_instance(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ContractViolationError("H_A refused")

    monkeypatch.setattr(cli, "build_block_preconditioner", refuse)
    cfg = _write(tmp_path / "s.cfg", "method = pl\nM = 8\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "solver error: H_A refused [method=pl M=8 k=2 periodic" in err


# the CLI as run_with_one_blas_thread arguments: the last digits of
# final_ratio follow the BLAS thread count, which only a fresh process can set
_CLI = ("-m", "saddleprec.cli")


# the first and the last recorded seed, and seed 3, which with seed 0 is where
# a change of the LU's rounding has moved the digest before
@pytest.mark.parametrize("seed", ["0", "3", "31"])
def test_contrast_sweep_csv_matches_the_benchmark_reference(tmp_path,
                                                             monkeypatch,
                                                             seed):
    monkeypatch.syspath_prepend(ROOT)
    workloads = importlib.import_module("bench.workloads")
    with open(os.path.join(ROOT, "bench", "reference", "contrast-sweep.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    cfg = _write(tmp_path / "contrast.cfg", workloads.CONTRAST_CONFIG.format(
        M=128, removal=512, delta=workloads.DELTA))
    # the reference was recorded with one BLAS thread
    out = tmp_path / "out"
    run_with_one_blas_thread(*_CLI, "solve", "--config", cfg,
                             "--out", str(out), "--seed", seed)
    data = (out / "solve.csv").read_bytes()
    assert (hashlib.sha256(data).hexdigest()
            == reference[seed]["outputs"]["solve_csv_sha256"])


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
    outputs, ha_setups = [], []
    for threads, sub in (("1", "t1"), ("4", "t4"), ("1", "t1b")):
        out = tmp_path / sub
        assert main([command, "--config", cfg, "--out", str(out),
                     "--threads", threads]) == EXIT_OK
        outputs.append((out / output).read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        ha_setups.append(manifest["ha_setups"])
    assert outputs[0] == outputs[1] == outputs[2]
    # three placements (one periodic, one random per seed), each with one
    # exact H_A for solve and a cg and an exact H_A for cost
    assert ha_setups == [{"solve": 3, "cost": 6}[command]] * 3
    capsys.readouterr()


def test_manifest_records_environment_outside_the_csv(tmp_path, capsys,
                                                      monkeypatch):
    # the BLAS thread count moves the last digits of final_ratio, so the
    # manifest records the variables that set it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = _write(tmp_path / "s.cfg", "method = pl\nM = 8\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["ha_setups"] == 1
    assert manifest["OPENBLAS_NUM_THREADS"] == "1"
    assert manifest["OMP_NUM_THREADS"] is None
    assert manifest["MKL_NUM_THREADS"] is None
    csv = (out / "solve.csv").read_text()
    for key in ("numpy", "scipy", "cpu_count", "ha_setups", "timestamp",
                "NUM_THREADS"):
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


def test_export_matrix_stiffness(tmp_path, capsys):
    cfg = _write(tmp_path / "exp2.cfg", "M = 8\nmatrix = stiffness\n")
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg, "--out", str(out)]) == EXIT_OK
    mat = scipy.io.mmread(
        str(out / "stiffness_M8_k2_periodic_0.0001.mtx")).tocsr()
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
    "M = 8\neps_mode = uniform, random\n",
], ids=["seed-axis", "eps-mode-axis"])
def test_export_matrix_refuses_colliding_files(tmp_path, capsys, text):
    cfg = _write(tmp_path / "clash.cfg", text)
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg,
                 "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error: export-matrix instances [M=" in err
    assert "would both write" in err
    assert not out.exists()             # refused before anything is written


def test_export_matrix_that_cannot_be_written_is_an_error(tmp_path, capsys):
    # the file of the second instance is a directory: the export exits 1
    # naming it, and keeps the matrix written before it
    out = tmp_path / "out"
    (out / "saddle_M16_k2_periodic_0.0001.mtx").mkdir(parents=True)
    cfg = _write(tmp_path / "exp.cfg", "M = 8, 16\n")
    assert main(["export-matrix", "--config", cfg,
                 "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 21] Is a directory: ")
    assert "saddle_M16" not in captured.out
    assert sorted(os.listdir(out)) == ["saddle_M16_k2_periodic_0.0001.mtx",
                                       "saddle_M8_k2_periodic_0.0001.mtx"]


@pytest.mark.parametrize("eps_min", ["1e-308", "1e-320"])
def test_export_matrix_refuses_a_sigma_beyond_the_float_range(
        tmp_path, capsys, eps_min):
    cfg = _write(tmp_path / "sig.cfg",
                 f"M = 8\nk = 2\nmatrix = sigma\neps_min = {eps_min}\n")
    out = tmp_path / "out"
    assert main(["export-matrix", "--config", cfg,
                 "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == ("error: sigma = 1 + 1/eps leaves the float "
                            f"range: the smallest eps is {eps_min}\n")
    assert captured.out == ""
    assert os.listdir(out) == []


# the CLI names an H_A kind only, and only for a sweep: inner-CG options are
# library arguments, and the dense check's H_A is always the exact one
@pytest.mark.parametrize("command,text,match", [
    ("solve", "ha = exact\nha_steps = 3\n",
     "unknown config key(s) for solve: ha_steps;"),
    ("solve", "ha = foo\n", "unknown ha 'foo'; use exact|cg|diagonal"),
    ("solve", "ha = cg\nha_base = ilu\n", "unknown config key(s) for solve: ha_base;"),
    ("spectrum", "ha = cg\n", "unknown config key(s) for spectrum: ha;"),
    ("cost", "pl_ha_steps = 4\n",
     "unknown config key(s) for cost: pl_ha_steps;"),
], ids=["exact-with-option", "unknown-kind", "ha-base-gone", "spectrum-cg",
        "cost-option-on-exact"])
def test_ha_config_refused_before_any_run(tmp_path, capsys, command, text,
                                          match):
    cfg = _write(tmp_path / "ha.cfg", "M = 8\n" + text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert match in err and err.count("error:") == 1
    assert not out.exists()


# keys that set what the paper fixes: the verdict's tolerance, a defect, the
# export's file name and cost's pairing of methods with H_A kinds
@pytest.mark.parametrize("command,text", [
    ("spectrum", "tol = 1e-8\n"), ("spectrum", "corrupt_q = true\n"),
    ("export-matrix", "name = mine\n"), ("cost", "pu_ha = cg\n"),
    ("cost", "pl_ha = exact\n"), ("cost", "pcgk_ha = exact\n"),
], ids=["tol", "corrupt_q", "name", "pu_ha", "pl_ha", "pcgk_ha"])
def test_fixed_settings_are_unknown_keys(tmp_path, capsys, command, text):
    cfg = _write(tmp_path / "fixed.cfg", "M = 8\n" + text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_ERROR
    key = text.split(" = ")[0]
    assert capsys.readouterr().err.startswith(
        f"error: unknown config key(s) for {command}: {key};")
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


# sha256 of the outputs of every shipped config, recorded with one BLAS
# thread; a change that means to keep every output byte keeps these
_SHIPPED_BYTES = {
    "cost_table.cfg": {
        "cost.md":
        "9da26d5afacfa6fed7e2dfac7d18fb0996472059d6c3d958054b367fa5601874"},
    "export_saddle.cfg": {
        "saddle_M16_k2_periodic_0.0001.mtx":
        "886b2ae515a0f03f8a71cb74992a985eb4764371d8bda0c94332d3bc2f2126b6"},
    "solve_sweep.cfg": {
        "solve.csv":
        "c287d0d6c3eaa12451a2d6fe6ec4435d02fcd2339f1a224bafe9008b5cadb156"},
    "spectrum_check.cfg": {
        "spectrum.csv":
        "4408811227c1873b46457592900674c72316d9526dedd34923fd25fd28a2ff46",
        "spectrum_eigs.csv":
        "5d3cd544e4b3ed828260a7651f8792f270485799ffdd2b04ad0792a0f22f242b"},
}


# sha256 of solve.csv for an rhs = one sweep per H_A kind, recorded with one
# BLAS thread: PU's preconditioned-residual stop (from a zero start residual
# under diagonal H_A), the F = (f, 0) paths of PL and PCG-K on the LU that
# the benchmark's ladder runs, and inner CG
_RHS_ONE_BYTES = {
    "cg": "0974d9b4893a5f3fe1104754cc1d3f7796b5e68411b51c90dc55d53f13a984e5",
    "diagonal":
        "731d46b140801e50eed68631bd2c71445d02c03f0e12a0f4d4846aa958ab91e0",
    "exact":
        "5f3e86bcef04e84eaddaa0683049bfc86dc8ffe41e90902149c54d226fc7eedd",
}


@pytest.mark.parametrize("ha", sorted(_RHS_ONE_BYTES))
def test_rhs_one_sweep_keeps_its_bytes(tmp_path, ha):
    cfg = _write(tmp_path / "rhs.cfg", "method = pu, pl, pcgk\nM = 32\n"
                 "k = 2\nlayout = periodic, random\neps_min = 1e-2, 1e-6\n"
                 f"rhs = one\nha = {ha}\n")
    out = tmp_path / "out"
    run_with_one_blas_thread(*_CLI, "solve", "--config", cfg,
                             "--out", str(out))
    data = (out / "solve.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _RHS_ONE_BYTES[ha]


# sha256 of export-matrix outputs for a random layout with random contrasts,
# recorded with one BLAS thread before the stiffness was built as a stencil:
# the stiffness comes from the stencil, the sigma matrix from the scatter
_EXPORT_BYTES = {
    "stiffness":
        "5c985d38ef3b9ed64ad5965cf372f2f71bea6c61bb6af726eacbac892faf89f8",
    "sigma":
        "56c1faeb8898d60d7450d7e6b0325e213e4ecfae7de24b4e5eb2a94a2c38e354",
}


@pytest.mark.parametrize("matrix", sorted(_EXPORT_BYTES))
def test_export_matrix_keeps_its_bytes(tmp_path, matrix):
    cfg = _write(tmp_path / "exp.cfg", "M = 16\nk = 2\nlayout = random\n"
                 f"eps_mode = random\nmatrix = {matrix}\n")
    out = tmp_path / "out"
    run_with_one_blas_thread(*_CLI, "export-matrix", "--config", cfg,
                             "--out", str(out))
    data = (out / f"{matrix}_M16_k2_random_0.0001.mtx").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _EXPORT_BYTES[matrix]


@pytest.mark.parametrize("matrix,built", [("stiffness", 0), ("saddle", 1)])
def test_export_matrix_builds_only_what_it_writes(tmp_path, capsys,
                                                  monkeypatch, matrix, built):
    calls = []
    for name in ("assemble_inclusion_blocks", "build_saddle_operator"):
        _count_calls(monkeypatch, name, calls, assembly)
    cfg = _write(tmp_path / "exp.cfg", "M = 16\nk = 2\nlayout = random\n"
                 f"eps_mode = random\nmatrix = {matrix}\n")
    assert main(["export-matrix", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [calls.count(name) for name in ("assemble_inclusion_blocks",
                                           "build_saddle_operator")
            ] == [built, built]
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(_SHIPPED_BYTES))
def test_shipped_config_outputs_keep_their_bytes(tmp_path, name):
    out = tmp_path / "out"
    run_with_one_blas_thread(*_CLI, _SHIPPED[name], "--config",
                             os.path.join(_CONFIG_DIR, name),
                             "--out", str(out))
    for output, expected in _SHIPPED_BYTES[name].items():
        data = (out / output).read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected, output
