"""Command-line surface: generate, build, verify, discriminate, evolve, replay.

Every subcommand validates its inputs, writes its artifacts atomically, and
drops a run manifest capturing the full configuration so a run can be
replayed byte-for-byte. Exit codes: 0 success, 1 validation error, 2 runtime
or numeric failure (and, for verify, 1 when a threshold check fails).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, metrics, theory
from .evolution import WindowConfig, evolve
from .generators import (
    FLOW_SYSTEMS,
    IID_FAMILIES,
    FlowSpec,
    IidSpec,
    gen_flow,
    gen_henon,
    gen_iid,
    gen_logistic,
    gen_periodic,
)
from .graph import build_lphvg, write_adjacency_csv, write_edge_list
from .metrics import (
    DegreeDistribution,
    clustering_coverage,
    degree_distribution,
    discriminate,
    link_frequency_by_separation,
    mean_degree_empirical,
)
from .series import RngConfig, TimeSeries, load_series, write_series

MAP_SYSTEMS = ("logistic", "henon")
ALL_SYSTEMS = MAP_SYSTEMS + FLOW_SYSTEMS


class CliError(ValueError):
    """User-facing validation error; maps to exit code 1."""


def _atomic_write(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    tmp_path = Path(tmp)
    try:
        writer(tmp_path)
        os.replace(tmp_path, path)
    finally:
        tmp_path.unlink(missing_ok=True)


def _write_manifest(path: Path, subcommand: str, config: dict, artifacts: dict) -> None:
    payload = {
        "subcommand": subcommand,
        "config": config,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "version": __version__,
    }
    _atomic_write(
        path,
        lambda p: p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n"),
    )


def _write_csv(path: Path, rows, header: list[str] | None = None) -> None:
    """Rows of Python values as CSV: floats as .17g, everything else via str."""
    def writer(p: Path):
        with p.open("w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    _atomic_write(path, writer)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _generate_series(args) -> TimeSeries:
    rng = RngConfig(args.seed, args.stream)
    if args.family:
        spec = IidSpec(
            family=args.family,
            n=args.n,
            rng=rng,
            mean=args.mean,
            sd=args.sd,
            alpha=args.alpha,
            xmin=args.xmin,
        )
        return gen_iid(spec)
    if args.system == "periodic":
        if args.period is None:
            raise CliError("--period is required for --system periodic")
        return gen_periodic(args.period, args.n, rng)
    g = rng.generator()
    if args.system == "logistic":
        x0 = args.x0 if args.x0 is not None else 0.05 + 0.9 * g.random()
        return gen_logistic(args.n, x0=x0, mu=args.mu)
    if args.system == "henon":
        x0 = args.x0 if args.x0 is not None else -0.1 + 0.2 * g.random()
        y0 = args.y0 if args.y0 is not None else -0.1 + 0.2 * g.random()
        return gen_henon(args.n, x0=x0, y0=y0)
    # flows: seed perturbs the default initial state unless one is given
    if args.init is not None:
        init = tuple(float(v) for v in args.init.split(","))
    else:
        from .generators import FLOW_DEFAULT_INIT

        base = np.array(FLOW_DEFAULT_INIT[args.system])
        init = tuple(base * (1.0 + 0.02 * (g.random(3) - 0.5)))
    spec = FlowSpec(
        system=args.system,
        n=args.n,
        init=init,
        dt=args.dt,
        transient=args.transient,
        stride=args.stride,
        component=args.component,
    )
    return gen_flow(spec)


def _series_config(args) -> dict:
    keys = [
        "family", "system", "n", "seed", "stream", "mean", "sd", "alpha", "xmin",
        "period", "x0", "y0", "mu", "init", "dt", "transient", "stride", "component",
    ]
    return {k: getattr(args, k, None) for k in keys}


def cmd_generate(args) -> int:
    series = _generate_series(args)
    out = Path(args.out)
    _atomic_write(out, lambda p: write_series(series, p))
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "generate",
        _series_config(args),
        {"series": out},
    )
    print(f"wrote {len(series)} samples to {out}")
    return 0


def _load_input(args) -> TimeSeries:
    column = args.column if args.column is not None else ("value" if args.has_header else 0)
    return load_series(args.input, column=column, has_header=args.has_header)


def cmd_build(args) -> int:
    series = _load_input(args)
    graph = build_lphvg(series, args.rho)
    out = Path(args.out)
    if args.format == "edges":
        _atomic_write(out, lambda p: write_edge_list(graph, p))
    else:
        _atomic_write(out, lambda p: write_adjacency_csv(graph, p))
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "build",
        {
            "input": str(args.input),
            "column": args.column,
            "has_header": args.has_header,
            "rho": args.rho,
            "format": args.format,
        },
        {"graph": out},
    )
    print(f"built LPHVG: n={graph.n} edges={graph.edge_count} rho={graph.rho}")
    return 0


def cmd_discriminate(args) -> int:
    if args.input:
        series = _load_input(args)
    else:
        series = _generate_series(args)
    result = discriminate(series, args.rho)
    out = Path(args.out)
    payload = json.loads(json.dumps(result.to_dict()), parse_constant=lambda _: None)  # NaN as null
    payload["config"] = {
        "rho": args.rho,
        "input": str(args.input) if args.input else None,
        **({k: v for k, v in _series_config(args).items() if v is not None} if not args.input else {}),
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(out, lambda p: p.write_text(text))
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "discriminate",
        payload["config"],
        {"verdict": out},
    )
    print(f"verdict: {result.verdict} (chi2/df={result.chi2_reduced:.2f}, "
          f"coverage={result.coverage:.4f}, lambda_hat={result.lambda_hat:.4f})")
    return 0


def cmd_verify(args) -> int:
    rho = args.rho
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pooled: dict[int, int] = {}
    total_nodes = 0
    mean_degrees = []
    coverages = []
    freq_rows = []
    max_sep = 30
    for seed in range(args.seeds):
        spec = IidSpec(family=args.family, n=args.n, rng=RngConfig(args.seed, seed))
        graph = build_lphvg(gen_iid(spec), rho)
        dist = degree_distribution(graph)
        for k, c in dist.counts.items():
            pooled[k] = pooled.get(k, 0) + c
        total_nodes += graph.n
        mean_degrees.append(mean_degree_empirical(graph))
        coverages.append(clustering_coverage(graph).fraction)
        freq_rows.append(link_frequency_by_separation(graph, max_sep))

    pooled_dist = DegreeDistribution(pooled, total_nodes)
    k_min = 2 * (rho + 1)
    pmf_rows = []
    failures = []
    # thresholds are designed for the 10-seed ensemble; smaller ensembles get
    # proportionally looser bounds so the checks keep ~the same power
    e_threshold = 0.15 * max(1.0, math.sqrt(10.0 / args.seeds))
    for k in range(k_min, pooled_dist.max_degree + 1):
        p_the = theory.degree_pmf(rho, k)
        p_num = pooled_dist.pmf(k)
        err = abs(p_num - p_the) / p_the
        expected = args.n * p_the
        pmf_rows.append((k, pooled[k] if k in pooled else 0, p_num, p_the, err))
        if expected >= 50 and err >= e_threshold:
            failures.append(f"pmf E(k={k}) = {err:.3f} >= {e_threshold:.3f}")
    _write_csv(
        outdir / "pmf_vs_theory.csv",
        pmf_rows,
        ["k", "count", "pmf", "theory_pmf", "relative_error"],
    )

    fsr = metrics.finite_size_report(pooled_dist, rho)
    _write_csv(
        outdir / "finite_size.csv",
        list(fsr.per_k),
        ["k", "relative_error"],
    )
    _write_csv(
        outdir / "finite_size_summary.csv",
        [(fsr.me, fsr.me_sum, fsr.k0, fsr.e_threshold)],
        ["me", "me_sum", "k0", "e_threshold"],
    )

    md = float(np.mean(mean_degrees))
    md_rel = abs(md - theory.mean_degree(rho)) / theory.mean_degree(rho)
    if md_rel >= 0.05:
        failures.append(f"mean degree {md:.3f} deviates {md_rel:.3%} from {theory.mean_degree(rho)}")

    cov = float(np.mean(coverages))
    band = metrics.COVERAGE_BANDS.get(rho)
    cov_ok = band is None or band[0] <= cov <= band[1]
    if not cov_ok:
        failures.append(f"coverage {cov:.4f} outside iid band {band}")
    _write_csv(
        outdir / "coverage.csv",
        list(enumerate(coverages)),
        ["seed", "coverage"],
    )

    freq = np.vstack(freq_rows)
    rows = []
    # simultaneous check over ~30 separations with few-seed (t-distributed)
    # standard errors: use a family-wise 0.1% bound so a pass/fail verdict is
    # reproducible without seed luck; genuine deviations sit far outside it
    from scipy.special import stdtrit  # the t quantile, as scipy.stats.t.ppf computes it

    n_checked = max(1, max_sep - (rho + 1))
    if args.seeds > 1:
        se_factor = max(3.0, float(stdtrit(args.seeds - 1, 1.0 - 0.0005 / n_checked)))
    else:
        se_factor = math.inf
    for sep in range(1, max_sep + 1):
        col = freq[:, sep - 1]
        emp = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(len(col))) if len(col) > 1 else math.nan
        th = theory.long_visibility_prob(rho, sep)
        rows.append((sep, emp, se, th, theory.long_visibility_prob_classic(rho, sep)))
        if sep <= rho + 1:
            if emp != 1.0:
                failures.append(f"band link frequency at sep={sep} is {emp} != 1")
        elif len(col) > 1 and se > 0 and abs(emp - th) > se_factor * se:
            failures.append(
                f"link frequency at sep={sep}: {emp:.5f} vs {th:.5f} "
                f"(bound {se_factor:.1f}*se = {se_factor * se:.5f})"
            )
    _write_csv(
        outdir / "long_distance.csv",
        rows,
        ["sep", "empirical", "stderr", "probability", "probability_classic"],
    )

    _write_csv(
        outdir / "theory_table.csv",
        [
            (r["k"], r["pmf"], r["c_min"], r["c_max"], int(r["c_max_extrapolated"]))
            for r in theory.degree_table(
                rho,
                pooled_dist.max_degree,
                unvalidated=rho > theory.CLUSTERING_RHO_MAX,
            )
        ],
        ["k", "pmf", "c_min", "c_max", "c_max_extrapolated"],
    )

    _write_manifest(
        outdir / "manifest.json",
        "verify",
        {
            "rho": rho,
            "n": args.n,
            "seeds": args.seeds,
            "seed": args.seed,
            "family": args.family,
        },
        {name: outdir / name for name in (
            "pmf_vs_theory.csv", "finite_size.csv", "finite_size_summary.csv",
            "coverage.csv", "long_distance.csv", "theory_table.csv",
        )},
    )

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    status = "pass" if not failures else "fail"
    print(f"verify {status}: rho={rho} n={args.n} seeds={args.seeds} "
          f"mean_degree={md:.3f} coverage={cov:.4f} k0={fsr.k0}")
    return 0 if not failures else 1


def cmd_evolve(args) -> int:
    series = _load_input(args)
    cfg = WindowConfig(window_len=args.window_len, step=args.step)
    result = evolve(series, args.rho, cfg, RngConfig(args.seed), ensemble=args.ensemble)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "distances.csv", result.distances.tolist())
    _write_csv(outdir / "gamma.csv", result.gamma.tolist())
    _write_csv(outdir / "recurrence.csv", result.recurrence.tolist())
    _write_csv(
        outdir / "window_metrics.csv",
        [
            (i, wm.start, wm.stop, wm.mean_degree, wm.mean_clustering, wm.mean_path_length)
            for i, wm in enumerate(result.per_window)
        ],
        ["window", "start", "stop", "mean_degree", "mean_clustering", "mean_path_length"],
    )
    _atomic_write(
        outdir / "theta.txt", lambda p: p.write_text(format(result.theta, ".17g") + "\n")
    )
    _write_manifest(
        outdir / "manifest.json",
        "evolve",
        {
            "input": str(args.input),
            "column": args.column,
            "has_header": args.has_header,
            "rho": args.rho,
            "window_len": args.window_len,
            "step": args.step,
            "seed": args.seed,
            "ensemble": args.ensemble,
        },
        {name: outdir / name for name in (
            "distances.csv", "gamma.csv", "recurrence.csv",
            "window_metrics.csv", "theta.txt",
        )},
    )
    print(f"evolve: T={result.window_count} theta={result.theta:.4f} "
          f"recurrent_offdiag={int(result.recurrence.sum() - result.window_count)}")
    return 0


# the artifact each replayable subcommand writes with --out (None: --outdir)
_REPLAY_OUT = {"generate": "series", "build": "graph", "discriminate": "verdict",
               "verify": None, "evolve": None}


def cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("artifacts"), dict)):
        raise CliError("malformed manifest: need an object with subcommand, config and artifacts")
    sub, artifacts = manifest.get("subcommand"), manifest["artifacts"]
    if not isinstance(sub, str) or sub not in _REPLAY_OUT:
        raise CliError(f"cannot replay subcommand {sub!r}")
    key = _REPLAY_OUT[sub]
    if key is not None and key not in artifacts:
        raise CliError(f"malformed manifest: no {key!r} artifact for {sub}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    argv = [sub] + _config_to_flags(manifest["config"])
    if key is None:
        return main(argv + ["--outdir", str(outdir)])
    return main(argv + ["--out", str(outdir / Path(artifacts[key]).name)])


def _config_to_flags(config: dict) -> list[str]:
    flags = []
    for key, value in config.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        else:
            flags += [flag, str(value)]
    return flags


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep 1 for validation
        raise CliError(message)


def _add_series_source(p: argparse.ArgumentParser, require_n: bool = True):
    p.add_argument("--family", choices=IID_FAMILIES)
    p.add_argument("--system", choices=ALL_SYSTEMS + ("periodic",))
    p.add_argument("--n", type=int, required=require_n)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--sd", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.5)
    p.add_argument("--xmin", type=float, default=1.0)
    p.add_argument("--period", type=int)
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", type=float)
    p.add_argument("--mu", type=float, default=4.0)
    p.add_argument("--init", type=str, help="comma-separated initial state for flows")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--transient", type=int, default=10_000)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--component", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lphvg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write a generated series as CSV")
    _add_series_source(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build the LPHVG of a CSV series")
    p.add_argument("--input", required=True)
    p.add_argument("--column")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--format", choices=("edges", "matrix"), default="edges")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check closed-form predictions on seeded series")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="base seed of the ensemble")
    p.add_argument("--family", choices=IID_FAMILIES, default="uniform")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discriminate", help="classify a series as iid-like or deviating")
    p.add_argument("--input")
    p.add_argument("--column")
    p.add_argument("--has-header", action="store_true")
    _add_series_source(p, require_n=False)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("evolve", help="sliding-window evolution pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--column")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--window-len", type=int, required=True)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", type=int, default=10)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("replay", help="re-run a manifest into a new directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "generate" or (args.cmd == "discriminate" and not args.input):
            chosen = [bool(getattr(args, "family", None)), bool(getattr(args, "system", None))]
            if sum(chosen) != 1:
                raise CliError("choose exactly one of --family/--system (or --input)")
            if args.cmd == "discriminate" and args.n is None:
                args.n = 3000
        return args.func(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
