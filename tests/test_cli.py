import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lphvg
from lphvg.cli import main


def run(argv):
    return main(argv)


class TestGenerate:
    def test_uniform_csv(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run(["generate", "--family", "uniform", "--n", "300",
                    "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 301
        assert (tmp_path / "u.csv.manifest.json").exists()

    def test_lorenz_bounded(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(["generate", "--system", "lorenz", "--n", "500",
                    "--seed", "7", "--transient", "1000", "--out", str(out)]) == 0
        vals = [float(v) for v in out.read_text().splitlines()[1:]]
        assert max(abs(v) for v in vals) < 25

    def test_invalid_alpha_exits_1(self, tmp_path, capsys):
        rc = run(["generate", "--family", "powerlaw", "--alpha", "0.5",
                  "--n", "100", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_family_and_system_conflict(self, tmp_path):
        rc = run(["generate", "--family", "uniform", "--system", "lorenz",
                  "--n", "100", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_periodic_requires_period(self, tmp_path):
        rc = run(["generate", "--system", "periodic", "--n", "100",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestBuild:
    def test_k4_edge_list(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("value\n3\n1\n2\n4\n")
        out = tmp_path / "g.txt"
        assert run(["build", "--input", str(src), "--has-header",
                    "--rho", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "0 1", "0 2", "0 3", "1 2", "1 3", "2 3"
        ]

    def test_increasing_rho0_path(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("\n".join(str(v) for v in range(1, 51)) + "\n")
        out = tmp_path / "g.txt"
        assert run(["build", "--input", str(src), "--rho", "0",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 49

    def test_matrix_format(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("1\n2\n3\n")
        out = tmp_path / "m.csv"
        assert run(["build", "--input", str(src), "--rho", "0",
                    "--format", "matrix", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["0,1,0", "1,0,1", "0,1,0"]

    def test_matrix_guard(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("\n".join(str(v) for v in range(2500)) + "\n")
        rc = run(["build", "--input", str(src), "--rho", "0",
                  "--format", "matrix", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert "edge-list" in capsys.readouterr().err

    def test_negative_column_exits_1(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("a,1.0\nb,3.0\nc,2.0\n")
        rc = run(["build", "--input", str(src), "--column", "-1", "--rho", "1",
                  "--out", str(tmp_path / "g.txt")])
        assert rc == 1
        assert "column index" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        rc = run(["build", "--input", str(tmp_path / "nope.csv"), "--rho", "0",
                  "--out", str(tmp_path / "g.txt")])
        assert rc == 1


class TestDiscriminate:
    def test_uniform_consistent(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["discriminate", "--family", "uniform", "--n", "3000",
                    "--seed", "3", "--rho", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "consistent-with-iid"
        assert payload["config"]["rho"] == 1

    def test_logistic_deviating(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["discriminate", "--system", "logistic", "--n", "3000",
                    "--seed", "3", "--rho", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "deviating"

    def test_short_input_warns_and_runs(self, tmp_path):
        src = tmp_path / "s.csv"
        vals = np.random.default_rng(0).random(400)
        src.write_text("value\n" + "\n".join(format(v, ".17g") for v in vals) + "\n")
        out = tmp_path / "v.json"
        with pytest.warns(UserWarning, match="soft floor"):
            rc = run(["discriminate", "--input", str(src), "--has-header",
                      "--rho", "1", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "values, fitted",
        [
            (np.ones(3000), False),
            (np.tile([0.0, 1.0], 1500), False),
            (np.round(np.random.default_rng(2).random(3000), 1), True),
        ],
        ids=["constant", "two-level", "rounded"],
    )
    def test_degenerate_input_exits_0(self, tmp_path, values, fitted):
        src = tmp_path / "s.csv"
        src.write_text("\n".join(format(v, ".17g") for v in values) + "\n")
        out = tmp_path / "v.json"
        assert run(["discriminate", "--input", str(src), "--rho", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=reject_constant)
        assert payload["verdict"] == "deviating"
        assert (payload["lambda_hat"] is None) is not fitted
        if not fitted:
            assert payload["lambda_consistent"] is False
            assert payload["fit_k_range"] == [None, None]


def reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after running `code`."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(lphvg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_skips_scipy_stats_and_csgraph():
    assert scipy_modules_after("import lphvg.cli") == []


def test_discriminate_build_and_verify_skip_scipy_sparse_and_stats(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("\n".join(format(v, ".17g") for v in np.random.default_rng(1).random(600)))
    code = f"""from lphvg.cli import main
assert main(["discriminate", "--family", "uniform", "--n", "600", "--rho", "1",
             "--out", {str(tmp_path / "v.json")!r}]) == 0
assert main(["build", "--input", {str(src)!r}, "--format", "edges", "--rho", "1",
             "--out", {str(tmp_path / "g.txt")!r}]) == 0"""
    assert scipy_modules_after(code) == []
    code += f"""
main(["verify", "--rho", "1", "--n", "600", "--seeds", "3", "--outdir", {str(tmp_path)!r}])"""
    loaded = scipy_modules_after(code)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.sparse", "scipy.stats"))]


def test_stdtrit_is_t_ppf_bit_for_bit():
    from scipy.special import stdtrit
    from scipy.stats import t

    for df in range(1, 51):
        for n_checked in range(1, 31):
            p = 1.0 - 0.0005 / n_checked  # the quantiles verify_ensemble asks for
            assert np.float64(stdtrit(df, p)).tobytes() == np.float64(t.ppf(p, df)).tobytes()


VERIFY_ARTIFACTS = ("pmf_vs_theory.csv", "finite_size.csv", "finite_size_summary.csv",
                    "coverage.csv", "long_distance.csv", "theory_table.csv", "manifest.json")


class TestVerify:
    def test_small_pass(self, tmp_path):
        outdir = tmp_path / "rep"
        rc = run(["verify", "--rho", "1", "--n", "3000", "--seeds", "3",
                  "--family", "uniform", "--outdir", str(outdir)])
        assert rc == 0
        for name in VERIFY_ARTIFACTS:
            assert (outdir / name).exists()
        assert lphvg.verify_ensemble(1, 3000, 3).failures == []

    def test_failed_checks_exit_1_and_still_write(self, tmp_path, capsys):
        # n=40 is far too short for the asymptotic mean degree and coverage band
        outdir = tmp_path / "rep"
        rc = run(["verify", "--rho", "1", "--n", "40", "--seeds", "2",
                  "--outdir", str(outdir)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out.startswith("verify fail: rho=1 n=40 seeds=2 ")
        assert "FAIL: mean degree" in err and "FAIL: coverage" in err
        assert all(line.startswith("FAIL: ") for line in err.splitlines())
        for name in VERIFY_ARTIFACTS:
            assert (outdir / name).exists()
        assert lphvg.verify_ensemble(1, 40, 2).failures

    @pytest.mark.parametrize("rho, n", [(0, 3), (5, 20), (0, 31), (1, 32)])
    def test_separations_stop_below_n(self, rho, n):
        sep, emp, se, th, classic = zip(*lphvg.verify_ensemble(rho, n, 3).tables[
            "long_distance.csv"][1])
        assert sep == tuple(range(1, min(30, n - 1) + 1))
        assert all(map(math.isfinite, emp + se + th + classic))
        assert emp[: rho + 1] == (1.0,) * min(rho + 1, n - 1)

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_exit_1(self, tmp_path, capsys, seeds):
        rc = run(["verify", "--rho", "1", "--n", "100", "--seeds", seeds,
                  "--outdir", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: seeds must be >= 1, got {seeds}\n"

    def test_rho3_no_band_still_runs(self, tmp_path):
        outdir = tmp_path / "rep3"
        rc = run(["verify", "--rho", "3", "--n", "2000", "--seeds", "2",
                  "--family", "uniform", "--outdir", str(outdir)])
        assert rc == 0


class TestEvolveAndReplay:
    def test_bundle_and_replay_bytes(self, tmp_path):
        series = tmp_path / "s.csv"
        assert run(["generate", "--family", "uniform", "--n", "600",
                    "--seed", "11", "--out", str(series)]) == 0
        outdir = tmp_path / "run1"
        rc = run(["evolve", "--input", str(series), "--has-header",
                  "--rho", "1", "--window-len", "100", "--step", "50",
                  "--seed", "5", "--ensemble", "2", "--outdir", str(outdir)])
        assert rc == 0
        artifacts = ["distances.csv", "gamma.csv", "recurrence.csv",
                     "window_metrics.csv", "theta.txt"]
        for name in artifacts + ["manifest.json"]:
            assert (outdir / name).exists()
        dist_rows = (outdir / "distances.csv").read_text().splitlines()
        assert len(dist_rows) == 11  # (600-100)//50 + 1 windows

        outdir2 = tmp_path / "run2"
        rc = run(["replay", "--manifest", str(outdir / "manifest.json"),
                  "--outdir", str(outdir2)])
        assert rc == 0
        for name in artifacts:
            assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes()

    @pytest.mark.parametrize(
        "header, flags",
        [("t,value\n", ["--has-header", "--column", "value"]), ("", ["--column", "1"])],
        ids=["named-column", "headerless-index"],
    )
    def test_discriminate_input_replay_bytes(self, tmp_path, header, flags):
        rng = np.random.default_rng(12)
        src = tmp_path / "s.csv"
        rows = rng.random((600, 2)).tolist()  # column 0 is a different series
        src.write_text(header + "".join(f"{t!r},{v!r}\n" for t, v in rows))
        out = tmp_path / "v.json"
        assert run(["discriminate", "--input", str(src), *flags, "--rho", "1",
                    "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["has_header"] is bool(header) and config["column"] == flags[-1]
        rc = run(["replay", "--manifest", str(tmp_path / "v.json.manifest.json"),
                  "--outdir", str(tmp_path / "again")])
        assert rc == 0
        assert (tmp_path / "again" / "v.json").read_bytes() == out.read_bytes()

    def test_generate_replay_bytes(self, tmp_path):
        out = tmp_path / "g.csv"
        run(["generate", "--family", "gaussian", "--n", "250", "--seed", "9",
             "--out", str(out)])
        outdir2 = tmp_path / "again"
        rc = run(["replay", "--manifest", str(tmp_path / "g.csv.manifest.json"),
                  "--outdir", str(outdir2)])
        assert rc == 0
        assert (outdir2 / "g.csv").read_bytes() == out.read_bytes()

    def test_manifest_without_artifacts_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "generate", "config": {}}))
        rc = run(["replay", "--manifest", str(manifest), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "malformed manifest" in capsys.readouterr().err

    def test_manifest_list_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(["generate", {}]))
        rc = run(["replay", "--manifest", str(manifest), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "malformed manifest" in capsys.readouterr().err

    def test_manifest_missing_artifact_key_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"subcommand": "build", "config": {}, "artifacts": {"series": "x"}}
        ))
        rc = run(["replay", "--manifest", str(manifest), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "'graph' artifact" in capsys.readouterr().err

    def test_window_validation_error(self, tmp_path):
        series = tmp_path / "s.csv"
        run(["generate", "--family", "uniform", "--n", "100", "--seed", "1",
             "--out", str(series)])
        rc = run(["evolve", "--input", str(series), "--has-header", "--rho", "1",
                  "--window-len", "50", "--step", "50", "--seed", "1",
                  "--outdir", str(tmp_path / "x")])
        assert rc == 1


class TestParsing:
    def test_unknown_flag_is_validation_error(self):
        assert run(["generate", "--nope", "1"]) == 1

    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_numeric_failure_exits_2(self, tmp_path, capsys):
        # a divergent orbit is a runtime failure, not a validation error
        rc = run(["generate", "--system", "henon", "--x0", "10", "--n", "100",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "diverged" in capsys.readouterr().err
