import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mmvgreedy import bench, cli
from mmvgreedy.matio import load_jsm, save_jsm


def run_cli(*args):
    # conftest puts the checkout's src first on PYTHONPATH, which the
    # subprocess inherits
    return subprocess.run(
        [sys.executable, "-m", "mmvgreedy", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_gen_writes_loadable_matrices(tmp_path):
    out = tmp_path / "data"
    res = run_cli("gen", "--n", 30, "--m", 20, "--L", 3, "--k", 4,
                  "--seed", 5, "--out-dir", out)
    assert res.returncode == 0, res.stderr
    A = load_jsm(out / "A.jsm")
    X = load_jsm(out / "X.jsm")
    Y = load_jsm(out / "Y.jsm")
    assert A.shape == (20, 30) and X.shape == (30, 3) and Y.shape == (20, 3)
    np.testing.assert_allclose(Y, A @ X, atol=1e-12)


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "--seed", 9, "--out-dir", a).returncode == 0
    assert run_cli("gen", "--seed", 9, "--out-dir", b).returncode == 0
    assert (a / "A.jsm").read_bytes() == (b / "A.jsm").read_bytes()
    assert (a / "Y.jsm").read_bytes() == (b / "Y.jsm").read_bytes()


def test_run_writes_schema_stable_csv(tmp_path):
    out = tmp_path / "trace.csv"
    res = run_cli(
        "run", "--algo", "mstogradmp", "--n", 30, "--m", 20, "--L", 3,
        "--k", 3, "--max-iter", 10, "--trials", 2, "--seed", 3, "--out", out,
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,algo,iter,time_s,rel_err,objective"
    assert any(line.startswith("0,mstogradmp,0,0.0,1.0,") for line in lines)
    assert any(line.startswith("mean,") for line in lines)
    assert any(line.startswith("median,") for line in lines)


def test_run_repeated_is_byte_identical(tmp_path):
    args = (
        "run", "--algo", "mstoiht", "--n", 30, "--m", 20, "--L", 3,
        "--k", 3, "--max-iter", 15, "--trials", 2, "--seed", 11,
    )
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_wall_timing_populates_time_column(tmp_path):
    out = tmp_path / "wall.csv"
    res = run_cli(
        "run", "--algo", "mstoiht", "--n", 30, "--m", 20, "--L", 3,
        "--k", 3, "--max-iter", 20, "--trials", 1, "--seed", 2,
        "--timing", "wall", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    times = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
    assert max(times) > 0.0


def test_gen_matches_library_instance(tmp_path):
    # the gen subcommand writes exactly trial 0 of the same-seed experiment
    from mmvgreedy.bench import ExperimentSpec, generate_instance

    out = tmp_path / "data"
    assert run_cli("gen", "--n", 30, "--m", 20, "--L", 3, "--k", 4,
                   "--sigma", 0.05, "--seed", 13, "--out-dir", out).returncode == 0
    spec = ExperimentSpec(n=30, m=20, L=3, k=4, noise_sigma=0.05, seed=13)
    A, X_star, Y = generate_instance(spec, trial=0)
    np.testing.assert_array_equal(load_jsm(out / "A.jsm"), A)
    np.testing.assert_array_equal(load_jsm(out / "X.jsm"), X_star)
    np.testing.assert_array_equal(load_jsm(out / "Y.jsm"), Y)


def test_run_flag_defaults_are_the_spec_defaults(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(["run", "--algo", "mstoiht", "--trials", "2", "--out", str(out)]) == 0
    table = bench.run_experiment(bench.ExperimentSpec(algo="mstoiht", trials=2))
    assert out.read_text() == table.to_csv_text()


def test_gen_flag_defaults_are_the_spec_defaults(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["gen", "--out-dir", str(out)]) == 0
    A, X_star, Y = bench.generate_instance(bench.ExperimentSpec(), trial=0)
    np.testing.assert_array_equal(load_jsm(out / "A.jsm"), A)
    np.testing.assert_array_equal(load_jsm(out / "X.jsm"), X_star)
    np.testing.assert_array_equal(load_jsm(out / "Y.jsm"), Y)


def test_run_usage_errors_exit_1(tmp_path):
    res = run_cli("run", "--algo", "mstoiht", "--trials", 0,
                  "--out", tmp_path / "x.csv")
    assert res.returncode == 1
    res = run_cli("run", "--algo", "newton", "--out", tmp_path / "x.csv")
    assert res.returncode == 1
    res = run_cli("frobnicate")
    assert res.returncode == 1


BAD_CONFIGS = {
    "batch larger than m": dict(algo="mstoiht", m=20, batch_size=21),
    "mstogradmp 2k > n": dict(algo="mstogradmp", n=30, k=16),
    "cstogradmp 2k > n": dict(algo="cstogradmp", n=30, k=16),
    "sigma nan": dict(algo="mstoiht", sigma="nan"),
    "gamma inf": dict(algo="mstoiht", gamma="inf"),
    "tol nan": dict(algo="mstoiht", tol="nan"),
}


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any instance is generated or any experiment runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work started for a bad configuration")

    monkeypatch.setattr(bench, "generate_instance", forbidden)
    monkeypatch.setattr(bench, "run_experiment", forbidden)


@pytest.mark.parametrize("bad", sorted(BAD_CONFIGS))
def test_run_rejects_bad_config_before_any_work(tmp_path, capsys, no_work, bad):
    flags = []
    for key, value in BAD_CONFIGS[bad].items():
        flags += [f"--{key.replace('_', '-')}", str(value)]
    out = tmp_path / "x.csv"
    assert cli.main(["run", *flags, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "algo, param, values",
    [("mstoiht", "batch", "1,21"), ("mstogradmp", "sparsity", "3,16"),
     ("cstogradmp", "sparsity", "3,16"), ("mstoiht", "noise", "0.02,nan"),
     ("mstoiht", "noise", "0.1234567,0.1234568"), ("mstoiht", "sparsity", "4,5.7")],
)
def test_sweep_rejects_bad_value_before_any_work(
    tmp_path, capsys, no_work, algo, param, values
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(n=30, m=20, L=3, k=3, algo=algo)))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--param", param, "--values", values,
                     "--base-config", str(cfg_path), "--out-dir", str(out)])
    assert code == 1
    assert "bad sweep value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_workers_flag_is_a_usage_error_before_any_output(
    tmp_path, capsys, no_work, command
):
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--algo", "mstoiht", "--out", str(out)]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n=30, m=20, L=3, k=3)))
        argv = ["sweep", "--param", "noise", "--values", "0.01",
                "--base-config", str(cfg_path), "--out-dir", str(out)]
    assert cli.main([*argv, "--workers", "2"]) == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("k", 2.5), ("seed", 1.5), ("trials", True)])
def test_sweep_rejects_non_integer_config_before_any_output(
    tmp_path, capsys, no_work, field, value
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 30, "m": 20, "L": 3, "k": 3, field: value}))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--param", "noise", "--values", "0.01",
                     "--base-config", str(cfg_path), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("gamma", True), ("noise_sigma", True),
                                          ("tol", False)])
def test_sweep_rejects_bool_real_config_before_any_output(
    tmp_path, capsys, no_work, field, value
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 30, "m": 20, "L": 3, "k": 3, field: value}))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--param", "noise", "--values", "0.01",
                     "--base-config", str(cfg_path), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must be a" in err
    assert not out.exists()


UNWRITABLE_OUTPUTS = {
    "run into a missing directory": ["run", "--algo", "mstoiht",
                                     "--out", "{tmp}/missing/x.csv"],
    "run into a directory": ["run", "--algo", "mstoiht", "--out", "{tmp}"],
    "gen into a file": ["gen", "--out-dir", "{tmp}/taken"],
    "sweep into a file": ["sweep", "--param", "noise", "--values", "0.01",
                          "--base-config", "{tmp}/cfg.json", "--out-dir", "{tmp}/taken"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_is_a_usage_error_before_any_work(
    tmp_path, capsys, no_work, case
):
    (tmp_path / "taken").write_text("")
    (tmp_path / "cfg.json").write_text(json.dumps(dict(n=30, m=20, L=3, k=3)))
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(tmp=tmp_path) for arg in UNWRITABLE_OUTPUTS[case]]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == ""


def test_gen_rejects_bad_spec_before_creating_out_dir(tmp_path, capsys, no_work):
    out = tmp_path / "data"
    assert cli.main(["gen", "--n", "3", "--k", "5", "--out-dir", str(out)]) == 1
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_from_config(tmp_path):
    cfg = dict(n=30, m=20, L=3, k=3, algo="mstoiht", batch_size=1,
               gamma=1.0, max_iter=5, tol=0.0, trials=2, seed=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    res = run_cli("sweep", "--param", "batch", "--values", "1,5",
                  "--base-config", cfg_path, "--out-dir", out)
    assert res.returncode == 0, res.stderr
    assert (out / "batch_1.csv").exists()
    assert (out / "batch_5.csv").exists()


def test_sweep_rejects_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 30, "momentum": 0.9}))
    res = run_cli("sweep", "--param", "noise", "--values", "0.02",
                  "--base-config", cfg_path, "--out-dir", tmp_path / "o")
    assert res.returncode == 1
    assert "momentum" in res.stderr


def test_analyze_kappa_mstoiht():
    res = run_cli("analyze", "kappa", "--family", "mstoiht",
                  "--rho-minus", 0.3, "--alpha", 0.5)
    assert res.returncode == 0, res.stderr
    value = float(res.stdout.split()[1])
    assert value == pytest.approx(2 * math.sqrt(0.55), rel=1e-12)


def test_analyze_kappa_cstogradmp_prints_betas():
    res = run_cli("analyze", "kappa", "--family", "cstogradmp",
                  "--rho-minus", 0.4, "--rho-plus", 0.5, "--alpha", 0.4)
    assert res.returncode == 0, res.stderr
    out = dict(line.split() for line in res.stdout.splitlines())
    assert set(out) == {"kappa", "beta1", "beta2", "kappa_per_column"}
    # alpha = rho_minus: exactly twice the joint coefficient (which is 1 here)
    assert float(out["kappa"]) == pytest.approx(2.0, rel=1e-12)


def test_analyze_kappa_cstoiht_prints_per_column():
    res = run_cli("analyze", "kappa", "--family", "cstoiht",
                  "--rho-minus", 0.05, "--alpha", 0.06)
    assert res.returncode == 0, res.stderr
    out = dict(line.split() for line in res.stdout.splitlines())
    assert float(out["kappa_per_column"]) == pytest.approx(7.224, rel=1e-12)
    assert float(out["kappa"]) == pytest.approx(math.sqrt(7.224), rel=1e-12)


def test_analyze_kappa_regime_error_exits_2():
    res = run_cli("analyze", "kappa", "--family", "cstogradmp",
                  "--rho-minus", 0.2, "--rho-plus", 0.6, "--alpha", 0.5)
    assert res.returncode == 2


def test_analyze_rip_exhaustive(tmp_path):
    path = tmp_path / "A.jsm"
    save_jsm(path, np.array([[1.0, 0.0], [0.0, 2.0]]))
    res = run_cli("analyze", "rip", "--matrix", path, "--k", 1)
    assert res.returncode == 0, res.stderr
    out = dict(line.split() for line in res.stdout.splitlines())
    assert float(out["delta"]) == pytest.approx(3.0)
    assert out["exact"] == "true"


def test_analyze_rip_infeasible_exhaustive_exits_2(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "A.jsm"
    save_jsm(path, rng.standard_normal((4, 60)))
    res = run_cli("analyze", "rip", "--matrix", path, "--k", 20)
    assert res.returncode == 2
    assert "sampled" in res.stderr


def test_analyze_rip_sampled_mode(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "A.jsm"
    save_jsm(path, rng.standard_normal((6, 12)))
    res = run_cli("analyze", "rip", "--matrix", path, "--k", 3,
                  "--mode", "sampled", "--samples", 50, "--seed", 4)
    assert res.returncode == 0, res.stderr
    out = dict(line.split() for line in res.stdout.splitlines())
    assert out["exact"] == "false"
    assert out["supports_checked"] == "50"


KAPPA_CONSTANTS = {
    "mstoiht": ["--rho-minus", "0.3", "--alpha", "0.5"],
    "cstoiht": ["--rho-minus", "0.05", "--alpha", "0.06"],
    "mstogradmp": ["--rho-minus", "0.4", "--rho-plus", "0.5", "--alpha", "0.4"],
    "cstogradmp": ["--rho-minus", "0.4", "--rho-plus", "0.5", "--alpha", "0.4"],
}


@pytest.mark.parametrize("family", sorted(KAPPA_CONSTANTS))
def test_analyze_kappa_flags_left_out_take_the_bound_defaults(capsys, family):
    argv = ["analyze", "kappa", "--family", family, *KAPPA_CONSTANTS[family]]
    explicit = (["--gamma", "1", "--eta", "1"] if family.endswith("iht")
                else ["--eta1", "1", "--eta2", "1", "--components", "1"])
    assert cli.main(argv) == 0
    bare = capsys.readouterr().out
    assert cli.main([*argv, *explicit]) == 0
    assert capsys.readouterr().out == bare


ANALYZE_USAGE_ERRORS = {
    "gamma with mstogradmp": (
        ["kappa", "--family", "mstogradmp", *KAPPA_CONSTANTS["mstogradmp"],
         "--gamma", "0.1"], "--gamma"),
    "eta1 with mstoiht": (
        ["kappa", "--family", "mstoiht", *KAPPA_CONSTANTS["mstoiht"],
         "--eta1", "2"], "--eta1"),
    "samples without sampled mode": (
        ["rip", "--matrix", "{matrix}", "--k", "2", "--samples", "50"], "--samples"),
    "seed without sampled mode": (
        ["rip", "--matrix", "{matrix}", "--k", "2", "--mode", "exhaustive",
         "--seed", "3"], "--seed"),
    "rho-minus 0": (
        ["kappa", "--family", "mstoiht", "--rho-minus", "0", "--alpha", "0.5"],
        "rho_minus"),
    "components 0": (
        ["kappa", "--family", "mstogradmp", "--rho-minus", "0.4", "--alpha", "0.4",
         "--components", "0"], "M must be"),
    "p-max below 1/M": (
        ["kappa", "--family", "cstogradmp", "--rho-minus", "0.4", "--alpha", "0.4",
         "--components", "4", "--p-max", "0.1"], "p_max"),
    "rip k 0": (["rip", "--matrix", "{matrix}", "--k", "0"], "k=0"),
    "rip samples 0": (
        ["rip", "--matrix", "{matrix}", "--k", "2", "--mode", "sampled",
         "--samples", "0"], "samples"),
    "malformed matrix file": (["rip", "--matrix", "{bad}", "--k", "2"], "JSM1"),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_USAGE_ERRORS))
def test_analyze_usage_errors_exit_1_before_any_output(tmp_path, capsys, case):
    matrix, bad = tmp_path / "A.jsm", tmp_path / "bad.jsm"
    save_jsm(matrix, np.random.default_rng(2).standard_normal((5, 6)))
    bad.write_bytes(b"JSM1\x00")
    argv, named = ANALYZE_USAGE_ERRORS[case]
    argv = [arg.format(matrix=matrix, bad=bad) for arg in argv]
    assert cli.main(["analyze", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and named in err
