"""Benchmark of the lphvg CLI: three workloads, output checks, a traced layer run.

Run from the repository root:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):

* ``evolve``   - one ``lphvg evolve`` on a uniform series (n=8600, rho 2,
  windows of 500 every 100, a 10-member reference ensemble);
* ``classify`` - ``lphvg discriminate`` on twelve n=3000 series and one
  ``lphvg verify --rho 1 --n 3000 --seeds 10``;
* ``build``    - ``lphvg build --format edges`` on an i.i.d. n=1e5 series at
  rho 0, 1 and 10 and on a trending n=8000 series at rho 1.

Every call runs in a fresh interpreter (``python -m lphvg.cli``) made by
this single process, one after another. A round makes every call of the
workload once; rounds repeat until ``--seconds`` have passed (at least one).
End-to-end times are scaled to a reference host speed (``REFERENCE_CODE``).
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of ``layers.py`` instead.
``--workload all`` runs the three workloads in turn and ``--smoke`` shrinks
every input to toy size. Results, with the environment and (traced) the
spans, are also written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("evolve", "classify", "build")
MIN_SETUP_PROBES = 3
# The host's speed drifts by a third over minutes. A fixed interpreter run
# that only imports the program's dependencies, timed just before every
# set-up probe, measures that speed, and times are reported at the speed of a
# host on which this probe takes REFERENCE_S seconds: each set-up probe is
# scaled by its own reference probe (the two track each other closely), and
# the CLI calls, which span the run, by the mean of the run's reference
# probes. (A shorter probe, of numpy and scipy.sparse alone, tracked the
# program's speed worse.)
REFERENCE_CODE = "import numpy, scipy.sparse.csgraph, scipy.stats"
REFERENCE_S = 1.0


@dataclass(frozen=True)
class Sizes:
    evolve_n: int = 8600
    window_len: int = 500
    step: int = 100
    evolve_rho: int = 2
    ensemble: int = 10
    classify_n: int = 3000
    classify_shapes: tuple[str, ...] = (
        "uniform", "gaussian", "logistic", "henon", "lorenz", "trend",
    )
    verify_n: int = 3000
    verify_seeds: int = 10
    build_n: int = 100_000
    build_rhos: tuple[int, ...] = (0, 1, 10)
    trend_n: int = 8000
    prefix: int = 2000


FULL = Sizes()
SMOKE = Sizes(
    evolve_n=1400, ensemble=2, classify_shapes=("uniform", "logistic"),
    verify_seeds=3, build_n=10_000, trend_n=2000, prefix=500,
)
IID_SHAPES = ("uniform", "gaussian")


@dataclass(frozen=True)
class EvolveCase:
    path: Path
    n: int
    rho: int
    window_len: int
    step: int
    ensemble: int
    threshold_seed: int
    label: str = "evolve"

    @property
    def windows(self) -> int:
        return (self.n - self.window_len) // self.step + 1

    def argv(self, out: Path) -> list[str]:
        return ["evolve", "--input", str(self.path), "--rho", str(self.rho),
                "--window-len", str(self.window_len), "--step", str(self.step),
                "--seed", str(self.threshold_seed), "--ensemble", str(self.ensemble),
                "--outdir", str(out / self.label)]

    def check(self, out: Path) -> list[str]:
        return checks.check_evolve(out / self.label, self.windows, self.rho)


@dataclass(frozen=True)
class DiscriminateCase:
    label: str
    path: Path
    rho: int
    expected: str

    def argv(self, out: Path) -> list[str]:
        return ["discriminate", "--input", str(self.path), "--rho", str(self.rho),
                "--out", str(out / f"{self.label}.json")]

    def check(self, out: Path) -> list[str]:
        return checks.check_verdict(out / f"{self.label}.json", self.expected)


@dataclass(frozen=True)
class VerifyCase:
    rho: int
    n: int
    seeds: int
    seed: int
    label: str = "verify"

    def argv(self, out: Path) -> list[str]:
        return ["verify", "--rho", str(self.rho), "--n", str(self.n),
                "--seeds", str(self.seeds), "--seed", str(self.seed),
                "--outdir", str(out / self.label)]

    def check(self, out: Path) -> list[str]:
        return checks.check_verify(out / self.label)


@dataclass(frozen=True)
class BuildCase:
    label: str
    path: Path
    n: int
    rho: int
    iid: bool
    prefix: int
    prefix_codes: np.ndarray

    def argv(self, out: Path) -> list[str]:
        return ["build", "--input", str(self.path), "--rho", str(self.rho),
                "--format", "edges", "--out", str(out / f"{self.label}.txt")]

    def check(self, out: Path) -> list[str]:
        return checks.check_build(out / f"{self.label}.txt", self.n, self.rho,
                                  self.prefix_codes, self.prefix, self.iid)


@dataclass(frozen=True)
class Plan:
    """Every call of every workload, on inputs written from one seed."""

    evolve: EvolveCase
    discriminate: tuple[DiscriminateCase, ...]
    constant: Path  # a constant series: valid input that may make discriminate raise
    verify: VerifyCase
    builds: tuple[BuildCase, ...]

    def calls(self, workload: str) -> list:
        if workload == "evolve":
            return [self.evolve]
        if workload == "classify":
            return [*self.discriminate, self.verify]
        return list(self.builds)


def make_plan(seed: int, sizes: Sizes, data: Path) -> Plan:
    def csv(shape: str, n: int) -> tuple[Path, np.ndarray]:
        values = inputs.make(shape, seed, n)
        return inputs.write_csv(data / f"{shape}-{n}.csv", values), values

    small_seed = seed % 2**32
    evolve_path, _ = csv("uniform", sizes.evolve_n)
    discriminate = []
    for shape in sizes.classify_shapes:
        path, _ = csv(shape, sizes.classify_n)
        expected = checks.VERDICT_IID if shape in IID_SHAPES else checks.VERDICT_DEVIATING
        for rho in (1, 2):
            discriminate.append(DiscriminateCase(f"{shape}_rho{rho}", path, rho, expected))
    constant_path, _ = csv("constant", sizes.classify_n)
    iid_path, iid = csv("uniform", sizes.build_n)
    trend_path, trend = csv("trend", sizes.trend_n)
    p = sizes.prefix
    builds = [
        BuildCase(f"iid_rho{rho}", iid_path, sizes.build_n, rho, True, p,
                  checks.oracle_edge_codes(iid[:p], rho))
        for rho in sizes.build_rhos
    ]
    builds.append(BuildCase("trend", trend_path, sizes.trend_n, 1, False, p,
                            checks.oracle_edge_codes(trend[:p], 1)))
    return Plan(
        evolve=EvolveCase(evolve_path, sizes.evolve_n, sizes.evolve_rho, sizes.window_len, sizes.step,
                          sizes.ensemble, small_seed),
        discriminate=tuple(discriminate),
        constant=constant_path,
        verify=VerifyCase(1, sizes.verify_n, sizes.verify_seeds, small_seed),
        builds=tuple(builds),
    )


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LPHVG_THREADS", None)  # the library default: one worker
    return env


@dataclass(frozen=True)
class Call:
    label: str
    wall_s: float
    peak_rss_mb: float
    returncode: int
    problems: tuple[str, ...]


def run_child(argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Run one interpreter; wall seconds, its own peak RSS (MB, from wait4) and exit code."""
    with stderr_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe(code: str, work: Path) -> float:
    """Wall time of a fresh interpreter running `code`; raises if it fails."""
    wall, _, rc = run_child(["-c", code], work / "probe.err")
    if rc != 0:
        raise RuntimeError(f"{code!r} failed:\n{(work / 'probe.err').read_text()}")
    return wall


def compile_sources(work: Path) -> None:
    """Write the package's bytecode, so no timed interpreter pays for compiling it."""
    probe(f"import compileall; compileall.compile_dir({str(SRC / 'lphvg')!r}, quiet=1)", work)


def run_call(case, out: Path, work: Path) -> Call:
    target = out / case.label
    shutil.rmtree(target, ignore_errors=True)
    for stale in out.glob(f"{case.label}.*"):
        stale.unlink()
    err = work / f"{case.label}.err"
    wall, rss, rc = run_child(["-m", "lphvg.cli", *case.argv(out)], err)
    if rc != 0:
        tail = err.read_text(errors="replace").strip().splitlines()[-1:]
        problems = [f"exit {rc}: {' '.join(tail)}"]
    else:
        problems = case.check(out)
    return Call(case.label, wall, rss, rc, tuple(problems))


def environment(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "LPHVG_THREADS": "unset (library default: 1 worker)",
    }


def median_round(rounds: list[list[Call]], labels) -> float:
    return statistics.median(sum(c.wall_s for c in r if c.label in labels) for r in rounds)


def detail_metrics(workload: str, plan: Plan, rounds: list[list[Call]]) -> dict:
    """The per-workload breakdown of the round's wall time, medians over rounds."""
    if workload == "evolve":
        return {"evolve_s": median_round(rounds, {"evolve"})}
    if workload == "classify":
        return {
            "discriminate_total_s": median_round(rounds, {c.label for c in plan.discriminate}),
            "verify_s": median_round(rounds, {"verify"}),
        }
    iid = {c.label for c in plan.builds if c.iid}
    return {
        "build_iid_s": median_round(rounds, iid),
        "build_trend_s": median_round(rounds, {"trend"}),
    }


def measure(workload: str, plan: Plan, seconds: float, work: Path) -> dict:
    """Rounds of CLI calls with a set-up probe before each, for `seconds` (at least one round)."""
    out = work / "out"
    out.mkdir()
    compile_sources(work)
    calls = plan.calls(workload)
    references: list[float] = []
    probes: list[float] = []
    rounds: list[list[Call]] = []

    def probe_pair():
        references.append(probe(REFERENCE_CODE, work))
        probes.append(probe("import lphvg.cli", work))

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        probe_pair()
        rounds.append([run_call(case, out, work) for case in calls])
    while len(probes) < MIN_SETUP_PROBES:
        probe_pair()
    made = [c for r in rounds for c in r]
    failed = [c for c in made if c.problems]
    scale = REFERENCE_S / statistics.mean(references)
    wall = median_round(rounds, {c.label for c in calls})
    setup = statistics.median(p / r for p, r in zip(probes, references)) * REFERENCE_S
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall * scale, "s"),
        "peak_rss_mb": (max(c.peak_rss_mb for c in made), "MB"),
    }
    detail = {name: (v * scale, "s")
              for name, v in detail_metrics(workload, plan, rounds).items()}
    detail["fail_frac"] = (len(failed) / len(made), "ratio")
    detail["wall_raw_s"] = (wall, "s")
    detail["setup_raw_s"] = (statistics.median(probes), "s")
    detail["reference_raw_s"] = (statistics.mean(references), "s")
    return {
        "correct": not failed,
        "attempted": len(made),
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
        "problems": [f"{c.label}: {p}" for c in failed for p in c.problems],
        "rounds": len(rounds),
        "probes": probes,
        "references": references,
        "calls": [[c.__dict__ for c in r] for r in rounds],
    }


PER_LAYER_UNITS = {"graph.edges": "count", "evolution.distance_pairs": "count",
                   "evolution.ensemble_members": "count", "evolution.windows": "count",
                   "metrics.degenerate_failures": "count", "evolution.span_coverage": "ratio"}


def trace(plan: Plan, work: Path) -> dict:
    out = work / "trace-out"
    out.mkdir()
    compile_sources(work)
    start = time.perf_counter()
    values, tracer = layers.run_trace(plan, sys.executable, child_env(), ROOT, out)
    metrics = {name: (v, PER_LAYER_UNITS.get(name, "s")) for name, v in values.items()}
    return {
        "correct": not tracer.failed_calls,
        "attempted": tracer.cli_calls,
        "failed": tracer.failed_calls,
        "metrics": metrics,
        "detail": {"trace_wall_s": (time.perf_counter() - start, "s")},
        "problems": tracer.problems,
        "spans": tracer.spans,
    }


def report(workload: str, seed: int, trace_on: int, result: dict, env: dict) -> None:
    print(f"perfbench workload={workload} seed={seed} trace={trace_on} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, (value, unit) in {**result["metrics"], **result["detail"]}.items():
        print(f"  {name:32s} {value:.6g} {unit}" if isinstance(value, float)
              else f"  {name:32s} {value} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace_on, "env": env, **result}
    (results / f"{workload}-seed{seed}-trace{trace_on}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size inputs")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "lphvg" / "cli.py").is_file():
        print(f"perfbench: no lphvg sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind normally: the running child is killed and reaped, the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sizes = SMOKE if args.smoke else FULL
    env = environment(args.seed)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        data = work / "data"
        data.mkdir()
        plan = make_plan(args.seed, sizes, data)
        if args.trace:  # the traced run covers every layer, whatever the workload
            report(args.workload, args.seed, 1, trace(plan, work), env)
            return 0
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            (work / workload).mkdir()
            result = measure(workload, plan, args.seconds, work / workload)
            report(workload, args.seed, 0, result, env)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
