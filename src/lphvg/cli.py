"""Command-line surface: generate, build, verify, discriminate, evolve, replay.

Every subcommand validates its inputs, writes its artifacts atomically, and
drops a run manifest capturing the full configuration so a run can be
replayed byte-for-byte. Exit codes: 0 success, 1 validation error or unusable
path, 2 runtime or numeric failure (and, for verify, 1 when a threshold check
fails).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import DEFAULT_ENSEMBLE, WindowConfig, evolve
from .generators import (
    FLOW_DEFAULT_INIT,
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
from .graph import build_lphvg, check_adjacency_export, write_adjacency_csv, write_edge_list
from .metrics import discriminate, verify_ensemble
from .series import RngConfig, TimeSeries, load_series, write_series

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


def _config(args) -> dict:
    """Every parsed argument of a run except the subcommand and where it writes."""
    return {k: v for k, v in vars(args).items() if k not in ("cmd", "func", "out", "outdir")}


def _write_manifest(path: Path, args, artifacts: dict) -> None:
    payload = {
        "subcommand": args.cmd,
        "config": _config(args),
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "version": __version__,
    }
    _atomic_write(
        path,
        lambda p: p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n"),
    )


# the artifact each replayable subcommand writes with --out (None: --outdir)
_REPLAY_OUT = {"generate": "series", "build": "graph", "discriminate": "verdict",
               "verify": None, "evolve": None}


def _write_out(args, writer) -> Path:
    """Write the --out artifact, then `<out>.manifest.json` beside it."""
    out = Path(args.out)
    _atomic_write(out, writer)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), args,
                    {_REPLAY_OUT[args.cmd]: out})
    return out


def _write_tables(args, tables: dict) -> None:
    """Write each {name: (header, rows)} table into --outdir, then its manifest."""
    outdir = Path(args.outdir)
    for name, (header, rows) in tables.items():
        _write_csv(outdir / name, header, rows)
    _write_manifest(outdir / "manifest.json", args, {name: outdir / name for name in tables})


def _write_csv(path: Path, header: list[str] | None, rows) -> None:
    """Rows of Python values as CSV: floats as .17g, everything else via str. A 2-D
    ndarray gives the bytes of its tolist() rows, formatting each distinct value once:
    distinct by bit pattern, as np.unique by value would merge -0.0 into 0.0."""
    if isinstance(rows, np.ndarray):
        bits, inverse = np.unique(rows.ravel().view(f"u{rows.itemsize}"), return_inverse=True)
        text = np.array([_fmt(v) for v in bits.view(rows.dtype).tolist()], dtype=object)
        lines = [",".join(row) + "\n" for row in text[inverse].reshape(rows.shape).tolist()]
    else:
        lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)

    def writer(p: Path):
        with p.open("w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(",".join(header) + "\n")
            fh.writelines(lines)

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
            raise ValueError("--period is required for --system periodic")
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


def cmd_generate(args) -> int:
    series = _generate_series(args)
    out = _write_out(args, lambda p: write_series(series, p))
    print(f"wrote {len(series)} samples to {out}")
    return 0


def _load_input(args) -> TimeSeries:
    column = args.column if args.column is not None else ("value" if args.has_header else 0)
    return load_series(args.input, column=column, has_header=args.has_header)


def cmd_build(args) -> int:
    series = _load_input(args)
    if args.format == "matrix":  # refuse before the build and before --out's directory exists
        check_adjacency_export(len(series))
    graph = build_lphvg(series, args.rho)
    writer = write_edge_list if args.format == "edges" else write_adjacency_csv
    _write_out(args, lambda p: writer(graph, p))
    print(f"built LPHVG: n={graph.n} edges={graph.edge_count} rho={graph.rho}")
    return 0


def cmd_discriminate(args) -> int:
    series = _load_input(args) if args.input else _generate_series(args)
    result = discriminate(series, args.rho)
    payload = json.loads(json.dumps(vars(result)), parse_constant=lambda _: None)  # NaN as null
    payload["config"] = _config(args)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_out(args, lambda p: p.write_text(text))
    print(f"verdict: {result.verdict} (chi2/df={result.chi2_reduced:.2f}, "
          f"coverage={result.coverage:.4f}, lambda_hat={result.lambda_hat:.4f})")
    return 0


def cmd_verify(args) -> int:
    report = verify_ensemble(args.rho, args.n, args.seeds, args.seed, args.family)
    _write_tables(args, report.tables)
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
    _write_tables(args, {
        "distances.csv": (None, result.distances),
        "gamma.csv": (None, result.gamma),
        "recurrence.csv": (None, result.recurrence),
        "window_metrics.csv": (
            ["window", "start", "stop", "mean_degree", "mean_clustering", "mean_path_length"],
            [(i, wm.start, wm.stop, wm.mean_degree, wm.mean_clustering, wm.mean_path_length)
             for i, wm in enumerate(result.per_window)],
        ),
        "theta.txt": (None, [(result.theta,)]),
    })
    print(f"evolve: T={result.window_count} theta={result.theta:.4f} "
          f"recurrent_offdiag={int(result.recurrence.sum() - result.window_count)}")
    return 0


def cmd_replay(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("artifacts"), dict)):
        raise ValueError("malformed manifest: need an object with subcommand, config and artifacts")
    sub, artifacts = manifest.get("subcommand"), manifest["artifacts"]
    if not isinstance(sub, str) or sub not in _REPLAY_OUT:
        raise ValueError(f"cannot replay subcommand {sub!r}")
    key = _REPLAY_OUT[sub]
    if key is not None and (not isinstance(artifacts.get(key), str)
                            or Path(artifacts[key]).name in ("", "..")):
        raise ValueError(f"malformed manifest: no {key!r} artifact path for {sub}")
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
        flags.append(flag if value is True else f"{flag}={value}")  # "=" keeps "-1,2,3" a value
    return flags


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; keep 1 for validation
        raise ValueError(message)


def _add_input(p: argparse.ArgumentParser, source) -> None:
    """--input, on `source` (the parser, or a group of sources), and how to read it."""
    source.add_argument("--input", required=source is p)
    p.add_argument("--column")
    p.add_argument("--has-header", action="store_true")


def _add_series_source(p: argparse.ArgumentParser, source, n_default: int | None = None):
    """--family/--system, on the required group `source`, and the generator settings."""
    source.add_argument("--family", choices=IID_FAMILIES)
    source.add_argument("--system", choices=("logistic", "henon") + FLOW_SYSTEMS + ("periodic",))
    p.add_argument("--n", type=int, required=n_default is None, default=n_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=RngConfig.stream_id)
    p.add_argument("--mean", type=float, default=IidSpec.mean)
    p.add_argument("--sd", type=float, default=IidSpec.sd)
    p.add_argument("--alpha", type=float, default=IidSpec.alpha)
    p.add_argument("--xmin", type=float, default=IidSpec.xmin)
    p.add_argument("--period", type=int)
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", type=float)
    p.add_argument("--mu", type=float, default=4.0)
    p.add_argument("--init", type=str, help="comma-separated initial state for flows")
    p.add_argument("--dt", type=float, default=FlowSpec.dt)
    p.add_argument("--transient", type=int, default=FlowSpec.transient)
    p.add_argument("--stride", type=int, default=FlowSpec.stride)
    p.add_argument("--component", type=int, default=FlowSpec.component)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lphvg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write a generated series as CSV")
    _add_series_source(p, p.add_mutually_exclusive_group(required=True))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build the LPHVG of a CSV series")
    _add_input(p, p)
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
    source = p.add_mutually_exclusive_group(required=True)
    _add_input(p, source)
    _add_series_source(p, source, n_default=3000)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("evolve", help="sliding-window evolution pipeline")
    _add_input(p, p)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--window-len", type=int, required=True)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", type=int, default=DEFAULT_ENSEMBLE)
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
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, PermissionError) as exc:  # other OSErrors (a full disk) exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry: ``python -m lphvg.cli`` and the ``lphvg`` script.

    The modules imported so far live until exit, so freezing them keeps both
    the run's collections and the interpreter's exit from walking them. A
    warning prints as one ``warning: <message>`` line, without a source path.
    ``main`` is the in-process API and leaves the collector and warnings alone.
    """
    gc.freeze()
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    return main()


if __name__ == "__main__":
    sys.exit(run())
