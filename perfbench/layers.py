"""Traced run: times each lphvg module from outside, one span per public call.

The benchmark process imports lphvg and calls the public functions of each
module on the same inputs the CLI workloads use, recording a span around
every call. Spans hold name, start, end, parent and trace id; they stay in
memory and are written out with the run's result. No library code is
changed or patched: every span boundary is a call made from this file.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

VERIFY_MAX_SEP = 30  # the separations `lphvg verify` checks


@dataclass
class Tracer:
    spans: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    cli_calls: int = 0
    failed_calls: int = 0
    problems: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        """Record one span; nested spans get the enclosing span as parent and share its trace."""
        parent = self.spans[self._stack[-1]] if self._stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "trace": trace or (parent["trace"] if parent else name),
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def children_total(self, span: dict) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"])

    def cli_main(self, name: str, case, out: Path, trace: str) -> None:
        """`cli.main` on `case` in this process under one span, then the case's output check."""
        from lphvg import cli

        argv = case.argv(out)
        with self.span(name, trace=trace), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        self.cli_calls += 1
        problems = case.check(out) if rc == 0 else [f"exit {rc}"]
        self.failed_calls += bool(problems)
        self.problems += [f"in-process {case.label}: {p}" for p in problems]


_IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_trace(python: str, env: dict, cwd: Path) -> dict[str, float]:
    """Cumulative seconds of `import lphvg.cli` and of two heavy imports, from -X importtime.

    Runs in its own interpreter, apart from the set-up probes, so the
    trace's own cost never reaches setup_s. An import that no longer
    happens reads 0.
    """
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import lphvg.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    total = scipy_stats = csgraph = 0.0
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME_LINE.match(line)
        if not m:
            continue
        cumulative, depth, module = int(m.group(2)) / 1e6, len(m.group(3)), m.group(4)
        if depth == 1 and (module == "lphvg" or module.startswith("lphvg.")):
            total += cumulative
        elif module == "scipy.stats":
            scipy_stats = cumulative
        elif module == "scipy.sparse.csgraph":
            csgraph = cumulative
    return {
        "cli.import_s": total,
        "cli.import_scipy_stats_s": scipy_stats,
        "cli.import_csgraph_s": csgraph,
    }


def trace_evolve(tr: Tracer, case, out: Path) -> dict[str, float]:
    """`cli.main evolve`, then the evolve pipeline as public calls, then `evolve` whole.

    `cli.main` runs first so that the step sequence and `evolve` whole, the
    two timings compared for span coverage, both run with the library warm.
    """
    from lphvg import RngConfig, WindowConfig, build_lphvg, evolve, load_series
    from lphvg.evolution import (
        correlation_index, distance_matrix, make_windows, recurrence_matrix,
        threshold_from_random,
    )
    from lphvg.metrics import mean_clustering, mean_degree_empirical, mean_path_length

    with tr.span("series.load_series", trace="evolve-load"):
        series = load_series(case.path)
    values = series.values
    cfg = WindowConfig(window_len=case.window_len, step=case.step)
    rng = RngConfig(case.threshold_seed)

    tr.cli_main("cli.main_evolve", case, out, trace="cli-evolve")
    with tr.span("evolution.steps", trace="evolve-steps") as steps:
        with tr.span("evolution.make_windows"):
            windows = make_windows(values.size, cfg)
        graphs = []
        for a, b in windows:
            with tr.span("graph.build_window"):
                graphs.append(build_lphvg(values[a:b], case.rho))
        for g in graphs:
            with tr.span("graph.edge_codes"):
                g.edge_codes
        for g in graphs:
            with tr.span("metrics.mean_degree"):
                mean_degree_empirical(g)
            with tr.span("metrics.mean_clustering"):
                mean_clustering(g)
            with tr.span("metrics.mean_path_length"):
                mean_path_length(g)
        with tr.span("evolution.distance_matrix"):
            dist = distance_matrix(graphs)
        with tr.span("evolution.threshold"):
            theta = threshold_from_random(cfg, values.size, case.rho, rng, case.ensemble)
        with tr.span("evolution.recurrence"):
            correlation_index(dist, theta)
            recurrence_matrix(dist, theta)
    tr.count("graph.edges", sum(g.edge_count for g in graphs))
    del graphs

    with tr.span("evolution.evolve", trace="evolve-whole") as whole:
        result = evolve(series, case.rho, cfg, rng, ensemble=case.ensemble)

    windows_count = len(windows)
    tr.count("evolution.windows", windows_count)
    tr.count("evolution.ensemble_members", case.ensemble)
    tr.count("evolution.distance_pairs", (1 + case.ensemble) * windows_count * (windows_count - 1) // 2)
    if result.window_count != windows_count:
        raise RuntimeError("evolve and make_windows disagree on the window count")
    steps_s = steps["end"] - steps["start"]
    whole_s = whole["end"] - whole["start"]
    return {
        "evolution.span_coverage": tr.children_total(steps) / whole_s,
        "trace.overhead_s": steps_s - whole_s,
    }


def trace_classify(tr: Tracer, cases, constant: Path, verify, out: Path) -> None:
    """discriminate per series (graph, coverage, whole call, CLI), the constant series, verify."""
    from lphvg import (
        IidSpec, RngConfig, build_lphvg, clustering_coverage, degree_distribution,
        discriminate, gen_iid, link_frequency_by_separation, load_series,
        mean_degree_empirical,
    )
    from lphvg.theory import CLUSTERING_RHO_MAX, degree_table

    for case in cases:
        with tr.span("series.load_series", trace=f"classify-{case.label}"):
            series = load_series(case.path)
        with tr.span("graph.build_n3000", trace=f"classify-{case.label}"):
            graph = build_lphvg(series, case.rho)
        tr.count("graph.edges", graph.edge_count)
        with tr.span("metrics.clustering_coverage", trace=f"classify-{case.label}"):
            clustering_coverage(graph)
        with tr.span("metrics.discriminate", trace=f"classify-{case.label}"):
            discriminate(series, case.rho)
        tr.cli_main("cli.main_discriminate", case, out, trace=f"classify-{case.label}")

    failures = 0
    try:
        discriminate(load_series(constant), 1)
    except Exception:  # any exception on valid input is a failure to count
        failures += 1
    tr.count("metrics.degenerate_failures", failures)

    with tr.span("verify.steps", trace="verify"):
        max_degree = 0
        for stream in range(verify.seeds):
            spec = IidSpec(family="uniform", n=verify.n, rng=RngConfig(verify.seed, stream))
            with tr.span("generators.gen_iid"):
                ts = gen_iid(spec)
            with tr.span("graph.build_n3000"):
                graph = build_lphvg(ts, verify.rho)
            tr.count("graph.edges", graph.edge_count)
            with tr.span("metrics.degree_distribution"):
                max_degree = max(max_degree, degree_distribution(graph).max_degree)
                mean_degree_empirical(graph)
            with tr.span("metrics.clustering_coverage"):
                clustering_coverage(graph)
            with tr.span("metrics.link_frequency"):
                link_frequency_by_separation(graph, VERIFY_MAX_SEP)
        with tr.span("theory.degree_table"):
            degree_table(verify.rho, max_degree, unvalidated=verify.rho > CLUSTERING_RHO_MAX)
    tr.cli_main("cli.main_verify", verify, out, trace="cli-verify")


def trace_build(tr: Tracer, cases, out: Path) -> None:
    """load_series, build_lphvg and write_edge_list per case, then `cli.main build`."""
    from lphvg import build_lphvg, load_series, write_edge_list

    loaded = {}
    for case in cases:
        if case.path not in loaded:
            with tr.span("series.load_series", trace=f"build-load-{case.path.name}"):
                loaded[case.path] = load_series(case.path)
    for case in cases:
        with tr.span(f"graph.build_{case.label}", trace=f"build-{case.label}"):
            graph = build_lphvg(loaded[case.path], case.rho)
        tr.count("graph.edges", graph.edge_count)
        with tr.span("graph.write_edge_list", trace=f"build-{case.label}"):
            write_edge_list(graph, out / f"lib-{case.label}.txt")
        del graph
        tr.cli_main("cli.main_build", case, out, trace=f"build-{case.label}")


SPAN_METRICS = (
    "cli.main_evolve", "cli.main_discriminate", "cli.main_verify", "cli.main_build",
    "series.load_series", "generators.gen_iid",
    "graph.build_window", "graph.build_n3000", "graph.build_iid_rho0",
    "graph.build_iid_rho1", "graph.build_iid_rho10", "graph.build_trend",
    "graph.edge_codes", "graph.write_edge_list",
    "metrics.mean_path_length", "metrics.mean_clustering", "metrics.clustering_coverage",
    "metrics.discriminate", "metrics.link_frequency",
    "evolution.distance_matrix", "evolution.threshold", "evolution.evolve",
    "theory.degree_table",
)


def run_trace(plan, python: str, env: dict, root: Path, out: Path) -> tuple[dict, Tracer]:
    """Every layer on the inputs of all three workloads; returns (metrics, tracer)."""
    metrics = import_trace(python, env, root)
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    tr = Tracer()
    metrics.update(trace_evolve(tr, plan.evolve, out))
    trace_classify(tr, plan.discriminate, plan.constant, plan.verify, out)
    trace_build(tr, plan.builds, out)
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = tr.total(name)
    metrics.update(tr.counts)
    return metrics, tr
