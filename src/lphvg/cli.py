"""Command-line surface: generate, build, verify, discriminate, evolve, replay.

Every subcommand validates its inputs, writes its artifacts atomically, and
drops a run manifest capturing the full configuration so a run can be
replayed byte-for-byte. Exit codes: 0 success, 1 validation error, 2 runtime
or numeric failure (and, for verify, 1 when a threshold check fails).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
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
from .metrics import discriminate, verify_ensemble
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
    if args.input:
        source = {"column": args.column, "has_header": args.has_header}
    else:
        source = {k: v for k, v in _series_config(args).items() if v is not None}
    payload["config"] = {
        "rho": args.rho,
        "input": str(args.input) if args.input else None,
        **source,
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
    report = verify_ensemble(args.rho, args.n, args.seeds, args.seed, args.family)
    outdir = Path(args.outdir)
    for name, (header, rows) in report.tables.items():
        _write_csv(outdir / name, rows, header)
    _write_manifest(
        outdir / "manifest.json",
        "verify",
        {"rho": args.rho, "n": args.n, "seeds": args.seeds, "seed": args.seed,
         "family": args.family},
        {name: outdir / name for name in report.tables},
    )
    for line in report.failures:
        print(f"FAIL: {line}", file=sys.stderr)
    status = "fail" if report.failures else "pass"
    print(f"verify {status}: rho={args.rho} n={args.n} seeds={args.seeds} "
          f"mean_degree={report.mean_degree:.3f} coverage={report.coverage:.4f} k0={report.k0}")
    return 1 if report.failures else 0


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
