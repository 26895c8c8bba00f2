import argparse
import ast
import csv
import gc
import importlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lphvg
from lphvg.cli import build_parser, main

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


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

    def test_logistic_mu_outside_range_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run(["generate", "--system", "logistic", "--mu", "5", "--n", "10",
                  "--out", str(out)])
        assert rc == 1
        assert "mu must lie in (0, 4], got 5.0" in capsys.readouterr().err
        assert not out.exists()

    def test_periodic_requires_period(self, tmp_path, capsys):
        rc = run(["generate", "--system", "periodic", "--n", "100",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --period is required for --system periodic\n"

    def test_periodic_writes_gen_periodic(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["generate", "--system", "periodic", "--period", "7", "--n", "100",
                    "--seed", "3", "--stream", "2", "--out", str(out)]) == 0
        expected = lphvg.gen_periodic(7, 100, lphvg.RngConfig(3, 2)).values
        assert lphvg.load_series(out, column="value", has_header=True).values.tobytes() == (
            expected.tobytes())


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

    def test_matrix_guard(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("built a graph the matrix format refuses")

        monkeypatch.setattr("lphvg.cli.build_lphvg", no_build)
        src = tmp_path / "s.csv"
        src.write_text("\n".join(str(v) for v in range(2500)) + "\n")
        out = tmp_path / "newdir" / "m.csv"
        rc = run(["build", "--input", str(src), "--rho", "0",
                  "--format", "matrix", "--out", str(out)])
        assert rc == 1
        assert "limited to n <= 2000 (got n=2500); use the edge-list format" in (
            capsys.readouterr().err)
        assert not out.parent.exists()

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
        # tuples are written as JSON arrays
        assert [type(k) for k in payload["fit_k_range"]] == [int, int]
        assert [type(c) for c in payload["coverage_band"]] == [float, float]
        assert run(["discriminate", "--family", "uniform", "--n", "3000",
                    "--seed", "3", "--rho", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["coverage_band"] is None  # no band past rho 2

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


    def test_hub_input_exits_0(self, tmp_path):
        # the hub's degree bin lies where the degree law underflows to 0.0
        src = tmp_path / "s.csv"
        src.write_text("\n".join(format(v, ".17g") for v in np.r_[1e9, np.arange(1, 3000)]) + "\n")
        out = tmp_path / "v.json"
        assert run(["discriminate", "--input", str(src), "--rho", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "deviating"

    def test_no_usable_bins_exits_1(self, tmp_path, capsys):
        values = np.random.default_rng(0).random(20)
        message = "series too short for the degree-law test: no usable bins"
        with pytest.warns(UserWarning, match="soft floor"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                lphvg.discriminate(values, 1)
        src = tmp_path / "s.csv"
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        out = tmp_path / "v.json"
        with pytest.warns(UserWarning, match="soft floor"):
            rc = run(["discriminate", "--input", str(src), "--rho", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_input_and_generator_conflict(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("\n".join(format(v, ".17g") for v in np.random.default_rng(0).random(600)))
        rc = run(["discriminate", "--input", str(src), "--family", "uniform", "--rho", "1",
                  "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert "not allowed with" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()


def reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's lphvg."""
    return dict(os.environ, PYTHONPATH=str(Path(lphvg.__file__).parents[1]))


def modules_after(code: str) -> list[str]:
    """The modules loaded in a fresh interpreter after running `code`."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after running `code`."""
    return [m for m in modules_after(code) if m.split(".")[0] == "scipy"]


def test_import_skips_scipy_stats_and_csgraph():
    assert scipy_modules_after("import lphvg.cli") == []


def test_discriminate_build_and_verify_skip_scipy_sparse_and_stats(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("\n".join(format(v, ".17g") for v in np.random.default_rng(1).random(600)))
    code = f"""from lphvg.cli import main
assert main(["discriminate", "--family", "uniform", "--n", "600", "--rho", "1",
             "--out", {str(tmp_path / "v.json")!r}]) == 0
assert main(["build", "--input", {str(src)!r}, "--format", "edges", "--rho", "1",
             "--out", {str(tmp_path / "g.txt")!r}]) == 0
assert main(["verify", "--rho", "1", "--n", "600", "--seeds", "1",
             "--outdir", {str(tmp_path / "one")!r}]) in (0, 1)"""
    assert scipy_modules_after(code) == []
    # numpy's parse of a plain CSV comes with numpy, and the input is decoded as plain
    # UTF-8: a build loads nothing beyond what `import lphvg.cli` and argparse load
    argv = ["build", "--input", str(src), "--rho", "1", "--out", str(tmp_path / "h.txt")]
    parsed = modules_after(f"from lphvg.cli import build_parser\nbuild_parser().parse_args({argv!r})")
    built = modules_after(f"from lphvg.cli import main\nassert main({argv!r}) == 0")
    assert set(built) - set(parsed) == set()
    code += f"""
main(["verify", "--rho", "1", "--n", "600", "--seeds", "3", "--outdir", {str(tmp_path)!r}])"""
    assert scipy_modules_after(code) == []


def test_iid_evolve_skips_scipy(tmp_path):
    # shallow i.i.d. windows take the BFS, and distances need no sparse product
    src = tmp_path / "s.csv"
    src.write_text("\n".join(format(v, ".17g") for v in np.random.default_rng(2).random(1200)))
    code = f"""from lphvg.cli import main
assert main(["evolve", "--input", {str(src)!r}, "--rho", "2", "--window-len", "300",
             "--step", "100", "--ensemble", "2", "--outdir", {str(tmp_path / "run")!r}]) == 0"""
    assert scipy_modules_after(code) == []


def test_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    src = tmp_path / "s.csv"
    src.write_text("\n".join(format(v, ".17g") for v in np.random.default_rng(3).random(1200)))
    modules_after(f"""import sys
sys.modules["scipy"] = None
from lphvg.cli import main
assert main(["discriminate", "--input", {str(src)!r}, "--rho", "1",
             "--out", {str(tmp_path / "v.json")!r}]) == 0
assert main(["build", "--input", {str(src)!r}, "--rho", "1",
             "--out", {str(tmp_path / "g.txt")!r}]) == 0
assert main(["verify", "--rho", "1", "--n", "600", "--seeds", "3",
             "--outdir", {str(tmp_path / "verify")!r}]) == 0
assert main(["evolve", "--input", {str(src)!r}, "--rho", "2", "--window-len", "300",
             "--step", "100", "--ensemble", "2", "--outdir", {str(tmp_path / "run")!r}]) == 0""")


def dropping(drop):
    """build_lphvg less the edges (i, j) for which drop(i, j, rho) holds."""
    def build(series, rho):
        g = lphvg.build_lphvg(series, rho)
        i, j = np.divmod(g.edge_codes, g.n)
        return lphvg.VisibilityGraph(g.n, g.rho, g.edge_codes[~drop(i, j, rho)])
    return build


# builders that break one law each, and the failure lines verify(rho 1, n 3000, 10 seeds) gives
BROKEN_BUILDS = {
    "no-sep-rho+2": (lambda i, j, rho: j - i == rho + 2, [
        "mean degree 6.968 deviates 12.896% from 8.0",
        "coverage 0.2428 outside iid band (0.76, 0.835)",
    ]),
    "even-sep-rho+2": (lambda i, j, rho: (j - i == rho + 2) & (i % 2 == 0), [
        "link frequency at sep=3: 0.24785 vs 0.50000 (bound 7.5*se = 0.01057)",
    ]),
    "no-edge-0-1": (lambda i, j, rho: (i == 0) & (j == 1), [
        "band link frequency at sep=1 is 0.999666555518506 != 1",
    ]),
    "no-sep-1": (lambda i, j, rho: j - i == 1, [  # interior nodes below degree 2(rho+1)
        f"pmf E(k={k}) = {e} >= 0.150" for k, e in enumerate(
            "0.348 0.375 0.356 0.356 0.355 0.354 0.376 0.394 0.355 0.305 0.362 0.399".split(), 4)
    ] + [
        "mean degree 5.966 deviates 25.422% from 8.0",
        "coverage 0.1540 outside iid band (0.76, 0.835)",
        "band link frequency at sep=1 is 0.0 != 1",
    ]),
}

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

    def test_equal_link_frequencies_pass(self, tmp_path):
        # all three seeds link the same share of pairs at sep=21, so that
        # separation has no spread to test against (std(ddof=1) is 2e-18, not 0)
        assert lphvg.verify_ensemble(1, 300, 3).failures == []
        assert run(["verify", "--rho", "1", "--n", "300", "--seeds", "3",
                    "--outdir", str(tmp_path / "rep")]) == 0

    def test_equal_link_frequencies_write_zero_stderr(self):
        rows = {row[0]: row for row in lphvg.verify_ensemble(1, 300, 3).tables[
            "long_distance.csv"][1]}
        assert rows[21][2] == 0.0  # not the std(ddof=1) residue 1.2e-18
        assert all(se == 0.0 or se > 1e-6 for _, _, se, _, _ in rows.values())

    @pytest.mark.parametrize("case", BROKEN_BUILDS)
    def test_broken_builder_fails(self, monkeypatch, case):
        drop, lines = BROKEN_BUILDS[case]
        monkeypatch.setattr(lphvg.metrics, "build_lphvg", dropping(drop))
        failures = lphvg.verify_ensemble(1, 3000, 10).failures
        pmf = [line for line in failures if line.startswith("pmf E(k=")]
        if case == "no-sep-rho+2":
            assert len(pmf) == 11 and failures[len(pmf):] == lines
        elif case == "even-sep-rho+2":
            assert pmf and failures[-1:] == lines
        else:
            assert failures == lines

    def test_broken_builder_exits_1(self, tmp_path, monkeypatch, capsys):
        drop, lines = BROKEN_BUILDS["no-edge-0-1"]
        monkeypatch.setattr(lphvg.metrics, "build_lphvg", dropping(drop))
        rc = run(["verify", "--rho", "1", "--n", "3000", "--seeds", "10",
                  "--outdir", str(tmp_path / "rep")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out.startswith("verify fail: rho=1 n=3000 seeds=10 ")
        assert err == "".join(f"FAIL: {line}\n" for line in lines)

    def test_builder_without_sep_1_gets_a_discriminate_verdict(self, monkeypatch):
        monkeypatch.setattr(lphvg.metrics, "build_lphvg", dropping(BROKEN_BUILDS["no-sep-1"][0]))
        series = lphvg.gen_iid(lphvg.IidSpec("uniform", 3000, lphvg.RngConfig(0)))
        assert lphvg.discriminate(series, 1).verdict == "deviating"

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

    def test_negative_value_replay_bytes(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(["generate", "--system", "lorenz", "--n", "200", "--init=-1,2,3",
                    "--transient", "100", "--out", str(out)]) == 0
        rc = run(["replay", "--manifest", str(tmp_path / "l.csv.manifest.json"),
                  "--outdir", str(tmp_path / "again")])
        assert rc == 0
        assert (tmp_path / "again" / "l.csv").read_bytes() == out.read_bytes()

    def test_generated_discriminate_replay_bytes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["discriminate", "--system", "henon", "--n", "800", "--seed", "4",
                    "--rho", "1", "--out", str(out)]) == 0
        rc = run(["replay", "--manifest", str(tmp_path / "v.json.manifest.json"),
                  "--outdir", str(tmp_path / "again")])
        assert rc == 0
        assert (tmp_path / "again" / "v.json").read_bytes() == out.read_bytes()

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

    @pytest.mark.parametrize("artifacts", [{"series": "x"}, {"graph": 5}, {"graph": ["g.txt"]}],
                             ids=["missing", "int", "list"])
    def test_manifest_missing_artifact_key_exits_1(self, tmp_path, capsys, artifacts):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"subcommand": "build", "config": {}, "artifacts": artifacts}
        ))
        rc = run(["replay", "--manifest", str(manifest), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: malformed manifest: no 'graph' artifact path for build\n")
        assert not (tmp_path / "o").exists()

    def test_manifest_of_replay_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "replay", "config": {}, "artifacts": {}}))
        rc = run(["replay", "--manifest", str(manifest), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot replay subcommand 'replay'\n"

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

    @pytest.mark.parametrize("argv, reason", [
        (["build", "--input", "{dir}", "--rho", "0", "--out", "{tmp}/g.txt"], "Is a directory"),
        (["build", "--input", "{src}", "--rho", "0", "--out", "{dir}"], "Is a directory"),
        (["build", "--input", "{src}", "--rho", "0", "--out", "{src}/x"], "File exists"),
        (["replay", "--manifest", "{dir}", "--outdir", "{tmp}/o"], "Is a directory"),
    ], ids=["input-dir", "out-dir", "out-under-file", "manifest-dir"])
    def test_unusable_path_exits_1(self, tmp_path, capsys, argv, reason):
        (tmp_path / "d").mkdir()
        src = tmp_path / "s.csv"
        src.write_text("1\n2\n3\n")
        rc = run([arg.format(tmp=tmp_path, dir=tmp_path / "d", src=src) for arg in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err

    @pytest.mark.parametrize("argv", [
        ["build", "--rho", "1", "--out", "{tmp}/g.txt"],
        ["discriminate", "--rho", "1", "--out", "{tmp}/v.json"],
        ["evolve", "--rho", "1", "--window-len", "2", "--step", "1", "--outdir", "{tmp}/run"],
    ], ids=["build", "discriminate", "evolve"])
    @pytest.mark.parametrize("content, flags, message", [
        (f"1.0,note\n{'x' * (csv.field_size_limit() + 1)},2.0\n".encode(), [],
         f"row 2: field larger than field limit ({csv.field_size_limit()})"),
        (b"1.0\n2.0\n\xff\n", [], "row 3: 'utf-8' codec can't decode byte 0xff in position 8"),
        (b"1.0\n2.0\n3.0\n", ["--column", "99999999999999999999"],
         "row 1: only 1 columns, need index 99999999999999999999"),
    ], ids=["cell-past-csv-limit", "undecodable-byte", "column-past-ssize-t"])
    def test_unreadable_input_exits_1_naming_its_row(self, tmp_path, capsys, argv, content,
                                                     flags, message):
        src = tmp_path / "s.csv"
        src.write_bytes(content)
        rc = run([argv[0], "--input", str(src), *flags]
                 + [a.format(tmp=tmp_path) for a in argv[1:]])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_numeric_failure_exits_2(self, tmp_path, capsys):
        # a divergent orbit is a runtime failure, not a validation error
        rc = run(["generate", "--system", "henon", "--x0", "10", "--n", "100",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "diverged" in capsys.readouterr().err


def parser_dests(cmd: str) -> set[str]:
    """The destinations of one subcommand's parser, without help, --out and --outdir."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[cmd]._actions} - {"help", "out", "outdir"}


def test_manifest_config_is_every_parsed_argument(tmp_path):
    series = str(tmp_path / "s.csv")
    runs = [
        (["generate", "--system", "logistic", "--n", "600", "--out", series],
         tmp_path / "s.csv.manifest.json"),
        (["build", "--input", series, "--has-header", "--rho", "1",
          "--out", str(tmp_path / "g.txt")], tmp_path / "g.txt.manifest.json"),
        (["verify", "--rho", "1", "--n", "600", "--seeds", "2", "--outdir", str(tmp_path / "rep")],
         tmp_path / "rep" / "manifest.json"),
        (["discriminate", "--input", series, "--has-header", "--rho", "1",
          "--out", str(tmp_path / "v.json")], tmp_path / "v.json.manifest.json"),
        (["discriminate", "--family", "uniform", "--n", "600", "--rho", "1",
          "--out", str(tmp_path / "w.json")], tmp_path / "w.json.manifest.json"),
        (["evolve", "--input", series, "--has-header", "--rho", "1", "--window-len", "200",
          "--step", "100", "--ensemble", "2", "--outdir", str(tmp_path / "run")],
         tmp_path / "run" / "manifest.json"),
    ]
    for argv, manifest in runs:
        assert run(argv) == 0, argv
        config = json.loads(manifest.read_text())["config"]
        assert set(config) == parser_dests(argv[0]), argv
    for name in ("v.json", "w.json"):
        verdict = json.loads((tmp_path / name).read_text())
        assert verdict["config"] == json.loads(
            (tmp_path / f"{name}.manifest.json").read_text())["config"]


def test_defaults_are_the_library_defaults():
    iid, flow = lphvg.IidSpec("uniform", 2, lphvg.RngConfig(0)), lphvg.FlowSpec("lorenz", 2)
    library = {"stream": iid.rng.stream_id, "mean": iid.mean, "sd": iid.sd, "alpha": iid.alpha,
               "xmin": iid.xmin, "dt": flow.dt, "transient": flow.transient,
               "stride": flow.stride, "component": flow.component}
    for argv in (["generate", "--family", "uniform", "--n", "2", "--out", "s.csv"],
                 ["discriminate", "--family", "uniform", "--rho", "1", "--out", "v.json"]):
        config = vars(build_parser().parse_args(argv))
        # the manifest's bytes: 0 and 0.0 would differ there
        assert json.dumps({k: config[k] for k in library}) == json.dumps(library), argv
    argv = ["evolve", "--input", "s.csv", "--rho", "1", "--window-len", "2", "--step", "1",
            "--outdir", "run"]
    ensemble = inspect.signature(lphvg.evolve).parameters["ensemble"].default
    assert vars(build_parser().parse_args(argv))["ensemble"] == ensemble


def test_process_entry_prints_a_warning_as_one_line(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(0).random(400).tolist()))
    proc = subprocess.run([sys.executable, "-m", "lphvg.cli", "discriminate", "--input", "s.csv",
                           "--rho", "1", "--out", "v.json"], cwd=tmp_path, env=src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: series length 400 is below the statistical soft floor of "
                           "500; the verdict may be unreliable\n")


def readme_commands() -> list[list[str]]:
    """The `lphvg` commands of the README's "Command line" block, as argv lists."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    argvs = [shlex.split(ln) for ln in lines]
    assert argvs and all(argv[0] == "lphvg" for argv in argvs)
    return [argv[1:] for argv in argvs]


def test_bench_imports_resolve():
    # tier-1 never runs the bench, so a library name it imports must not vanish unseen
    bench, names = ROOT / "perfbench", 0
    for script in ("layers.py", "smoke.py"):
        for node in ast.walk(ast.parse((bench / script).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lphvg":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (script, node.module, alias.name)
                    names += 1
    assert names >= 20


def test_readme_library_tour():
    section = README.read_text().split("## Library tour", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})


def test_readme_command_line_block(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands].count("replay") == 1
    for argv in commands:
        assert main(argv) == 0, argv
    (manifest,) = [argv[argv.index("--manifest") + 1] for argv in commands if argv[0] == "replay"]
    again = Path(commands[-1][commands[-1].index("--outdir") + 1])
    artifacts = json.loads(Path(manifest).read_text())["artifacts"]
    assert len(artifacts) == 5
    for path in artifacts.values():
        assert (again / Path(path).name).read_bytes() == Path(path).read_bytes(), path


# Each case runs as `python -m lphvg.cli` (through run(), which freezes the heap) and in
# process through main(), from twin directories with relative paths: the exit code, stdout,
# stderr and every file written must match byte for byte.
PROCESS_CASES = {
    "build": (["build", "--input", "s.csv", "--has-header", "--rho", "1", "--out", "g.txt"], 0),
    "missing-input": (["build", "--input", "absent.csv", "--rho", "1", "--out", "g.txt"], 1),
    "evolve": (["evolve", "--input", "s.csv", "--has-header", "--rho", "1", "--window-len", "100",
                "--step", "50", "--ensemble", "2", "--outdir", "run"], 0),  # forks when frozen
    "failing-verify": (["verify", "--rho", "1", "--n", "100", "--seeds", "10",
                        "--outdir", "rep"], 1),
}


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_process_entry_matches_main(tmp_path, monkeypatch, capsys, case):
    argv, code = PROCESS_CASES[case]
    here, there = tmp_path / "in_process", tmp_path / "process"
    for d in (here, there):
        d.mkdir()
        (d / "s.csv").write_text("value\n" + "\n".join(
            format(v, ".17g") for v in np.random.default_rng(4).random(600)) + "\n")
    proc = subprocess.run([sys.executable, "-m", "lphvg.cli", *argv], cwd=there, env=src_env(),
                          capture_output=True, text=True)
    monkeypatch.chdir(here)
    assert main(argv) == proc.returncode == code
    assert capsys.readouterr() == (proc.stdout, proc.stderr)
    assert tree_bytes(here) == tree_bytes(there)
    out, err = proc.stdout.splitlines(), proc.stderr.splitlines()
    if case == "build":
        assert out == ["built LPHVG: n=600 edges=2370 rho=1"] and err == []
    elif case == "missing-input":
        assert proc.stdout == "" and proc.stderr == "error: no such file: absent.csv\n"
    elif case == "evolve":
        assert len(out) == 1 and out[0].startswith("evolve: T=11 theta=") and err == []
        assert len(tree_bytes(there)) == 7  # the series, five tables and the manifest
    else:
        assert len(out) == 1 and out[0].startswith("verify fail: rho=1 n=100 seeds=10 ")
        assert err and all(line.startswith("FAIL: ") for line in err)


def test_only_the_process_entry_freezes(tmp_path, monkeypatch):
    from lphvg import cli

    argv = ["discriminate", "--family", "uniform", "--n", "600", "--rho", "1",
            "--out", str(tmp_path / "v.json")]
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0  # neither the import nor main() touched the collector
    monkeypatch.setattr(sys, "argv", ["lphvg", *argv])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"lphvg": "lphvg.cli:run"}
