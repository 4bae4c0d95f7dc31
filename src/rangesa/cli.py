"""Command-line pipeline: data generation, training, range estimation, oracles.

Every command is deterministic given its configuration: all seeds are
explicit and the config is echoed into every output artifact. Wall time goes
to the log, never into output files.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import fields
from pathlib import Path

from .anneal import AnnealConfig, EvalBudgetExceeded, LevelSummary
from .domain import BoxDomain
from .objectives import Dataset, Objective, builtin, sample_dataset
from .presets import Preset, preset
from .range_analysis import GridBudgetExceeded, compare_modes, estimate_range, grid_oracle
from .resnet import ResNet, WeightFormatError
from .trainer import TrainConfig, evaluate_fit, save_loss_history, train

log = logging.getLogger("rangesa")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

PATH_OPTIONS = ("data", "weights")  # echoed by file name only


class UsageError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


def _check(ok, message: str) -> None:
    if not ok:
        raise UsageError(message)


def parse_domain(spec) -> BoxDomain:
    """Accept 'l1,u1,...,ld,ud' strings or [[l, u], ...] lists."""
    if isinstance(spec, str):
        try:
            vals = [float(v) for v in spec.split(",")]
        except ValueError:
            raise UsageError(f"cannot parse domain {spec!r}") from None
        _check(vals and len(vals) % 2 == 0,
               "domain needs an even number of values: l1,u1,...,ld,ud")
        pairs = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    else:
        pairs = tuple(tuple(map(float, b)) for b in spec)
    try:
        return BoxDomain(pairs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _merged_options(args: argparse.Namespace) -> dict:
    """Config file values overridden by explicitly given flags."""
    opts = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        _check(path.exists(), f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config file {path}: {exc}") from exc
        _check(isinstance(doc, dict), f"config file {path} must hold a JSON object")
        opts.update(doc)
    for key, value in vars(args).items():
        if key in ("config", "command", "func"):
            continue
        if value is not None:
            opts[key] = value
    return opts


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(opts: dict, key: str):
    _check(opts.get(key) is not None, f"missing required option {_flag(key)}")
    return opts[key]


def _opt(opts: dict, key: str, default):
    """The option's value, or the default when it is absent (not when it is 0)."""
    value = opts.get(key)
    return default if value is None else value


def _positive(opts: dict, key: str, default, kind=int):
    """A count or scale option that must be above 0."""
    value = kind(_opt(opts, key, default))
    _check(value > 0, f"{_flag(key)} must be positive, got {value}")
    return value


def _builtin(fn: str) -> tuple[Objective, Preset]:
    try:
        return builtin(fn), preset(fn)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_objective(opts: dict) -> tuple[Objective, BoxDomain]:
    """Objective from --fn or --weights, and the domain to search it on."""
    fn = opts.get("fn")
    weights = opts.get("weights")
    _check((fn is None) != (weights is None), "exactly one of --fn or --weights is required")
    if fn is not None:
        objective, p = _builtin(fn)
        default_domain = p.train_domain
    else:
        objective = ResNet.load(weights).as_objective(name=Path(weights).stem)
        default_domain = None
    return objective, _resolve_domain(opts, default_domain, objective.dim)


def _resolve_domain(opts: dict, default: BoxDomain | None, dim: int) -> BoxDomain:
    """--domain, which must have ``dim`` dimensions, or else the default."""
    if opts.get("domain") is None:
        _check(default is not None,
               "--domain is required when the objective comes from a weights file")
        return default
    domain = parse_domain(opts["domain"])
    _check(domain.dim == dim, f"domain dimension {domain.dim} != objective dimension {dim}")
    return domain


def _config(cls, opts: dict, keys, **fixed):
    """``cls(**fixed)`` with every given option among ``keys``; bad values are usage errors."""
    kwargs = {k: opts[k] for k in keys if opts.get(k) is not None}
    try:
        return cls(**fixed, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _anneal_config(opts: dict) -> AnnealConfig:
    return _config(AnnealConfig, opts, [f.name for f in fields(AnnealConfig)])


def _out_dir(opts: dict) -> Path:
    out = Path(opts.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(opts: dict) -> dict:
    # "out" is left out and input paths are cut to their file names, so artifacts
    # stay byte-identical across directories
    return {k: Path(v).name if k in PATH_OPTIONS and isinstance(v, str) else v
            for k, v in sorted(opts.items()) if k != "out" and not callable(v)}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_fit_report(out: Path, report, opts: dict) -> None:
    _write_json(out / "fit_report.json", {**report.to_json_dict(), "config": _echo_config(opts)})
    log.info("fit: MAE %.4f, MSE %.4f", report.mae, report.mse)


# --- commands ----------------------------------------------------------


def cmd_generate_data(args) -> int:
    opts = _merged_options(args)
    fn = _require(opts, "fn")
    objective, p = _builtin(fn)
    domain = _resolve_domain(opts, p.train_domain, objective.dim)
    m = _positive(opts, "m", p.default_m)
    noise_sd = float(_opt(opts, "noise_sd", 0.1))
    _check(0 <= noise_sd < float("inf"), f"--noise-sd must be finite and >= 0, got {noise_sd}")
    seed = int(_opt(opts, "seed", 0))
    out = _out_dir(opts)

    data = sample_dataset(objective, domain, m=m, noise_sd=noise_sd, seed=seed)
    csv_path = out / f"{fn}_data.csv"
    data.save(csv_path)
    log.info("wrote %d rows to %s", len(data), csv_path)
    return EXIT_OK


def cmd_train(args) -> int:
    opts = _merged_options(args)
    p = preset(_require(opts, "preset"))
    data = Dataset.load(_require(opts, "data"))
    _check(data.dim == p.objective.dim,
           f"dataset dimension {data.dim} does not match preset {p.name} ({p.objective.dim})")
    seed = int(_opt(opts, "seed", 0))
    width_scale = _positive(opts, "width_scale", 1.0, float)
    cfg = _config(TrainConfig, opts, ("learning_rate", "epochs", "batch_size"), seed=seed)
    out = _out_dir(opts)

    net = p.architecture(seed=seed, width_scale=width_scale)
    t0 = time.perf_counter()
    net, history = train(net, data, cfg)
    log.info("trained %d epochs in %.1f s (final loss %.6g)",
             cfg.epochs, time.perf_counter() - t0, history[-1])

    net.save(out / "weights.json")
    save_loss_history(history, out / "loss_history.csv")
    report = evaluate_fit(net, p.objective, p.eval_domain, n=p.eval_n, seed=seed)
    _write_fit_report(out, report, opts)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    opts = _merged_options(args)
    net = ResNet.load(_require(opts, "weights"))
    objective, p = _builtin(_require(opts, "fn"))
    _check(net.input_dim == objective.dim,
           f"network input dimension {net.input_dim} != objective dimension {objective.dim}")
    domain = _resolve_domain(opts, p.eval_domain, objective.dim)
    n = _positive(opts, "n", p.eval_n)
    seed = int(_opt(opts, "seed", 0))
    out = _out_dir(opts)

    _write_fit_report(out, evaluate_fit(net, objective, domain, n=n, seed=seed), opts)
    return EXIT_OK


def cmd_estimate_range(args) -> int:
    opts = _merged_options(args)
    objective, domain = _load_objective(opts)
    cfg = _anneal_config(opts)
    n_seeds = _positive(opts, "n_seeds", 10)
    out = _out_dir(opts)

    t0 = time.perf_counter()
    result, traces = estimate_range(objective, domain, cfg, n_seeds=n_seeds, return_traces=True)
    log.info("range [%.6g, %.6g] in %.1f s (%d evaluations)",
             result.f_min, result.f_max, time.perf_counter() - t0, result.eval_count)

    doc = result.to_json_dict(cfg)
    doc["config"]["n_seeds"] = n_seeds
    _write_json(out / "range_result.json", doc)
    labelled = [(kind, r) for kind, runs in traces.items() for r in runs]
    LevelSummary.of(labelled).to_csv(out / "levels.csv")
    return EXIT_OK


def cmd_oracle(args) -> int:
    opts = _merged_options(args)
    objective, domain = _load_objective(opts)
    points_per_dim = int(_require(opts, "points_per_dim"))
    _check(points_per_dim >= 2, f"--points-per-dim must be at least 2, got {points_per_dim}")
    out = _out_dir(opts)

    t0 = time.perf_counter()
    result = grid_oracle(objective, domain, points_per_dim)
    log.info("oracle min %.6g / max %.6g over %d points in %.1f s",
             result.min_value, result.max_value, result.n_points, time.perf_counter() - t0)
    doc = result.to_json_dict()
    doc["config"] = _echo_config(opts)
    _write_json(out / "oracle.json", doc)
    return EXIT_OK


def cmd_compare(args) -> int:
    opts = _merged_options(args)
    objective, domain = _load_objective(opts)
    cfg = _anneal_config(opts)
    n_seeds = _positive(opts, "n_seeds", 10)
    out = _out_dir(opts)

    rows, runs = compare_modes(objective, domain, cfg, n_seeds)
    LevelSummary.of((r.config.mode, r) for r in runs).to_csv(out / "levels.csv")
    # str of a Python float is its shortest round-trip repr
    lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
    (out / "compare_summary.csv").write_text("\n".join(lines) + "\n")
    _write_json(out / "compare_summary.json", {"rows": rows, "config": _echo_config(opts)})
    return EXIT_OK


# --- argument parsing ---------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; explicit flags win")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output directory (default: current)")


def _add_objective_flags(sp):
    sp.add_argument("--fn", help="builtin objective name")
    sp.add_argument("--weights", help="weights file to wrap as the objective")
    sp.add_argument("--domain", help="bounds as l1,u1,...,ld,ud")


def _add_anneal_flags(sp):
    sp.add_argument("--t-max", dest="t_max", type=float)
    sp.add_argument("--t-min", dest="t_min", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--inner-iters", dest="inner_iters", type=int)
    sp.add_argument("--variance", dest="proposal_variance", type=float)
    sp.add_argument("--mode", choices=("reflected", "classical"))
    sp.add_argument("--cooling", choices=("theorem", "algorithm1"))
    sp.add_argument("--n-seeds", dest="n_seeds", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangesa",
        description="Output range estimation for black-box functions by "
        "simulated annealing with reflective boundary conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate-data", help="sample a noisy dataset from a builtin objective")
    _add_common(sp)
    sp.add_argument("--fn")
    sp.add_argument("--domain")
    sp.add_argument("--m", type=int)
    sp.add_argument("--noise-sd", dest="noise_sd", type=float)
    sp.set_defaults(func=cmd_generate_data)

    sp = sub.add_parser("train", help="train a preset architecture on a dataset")
    _add_common(sp)
    sp.add_argument("--preset", choices=("ackley", "dropwave", "multimin"))
    sp.add_argument("--data", help="dataset CSV (with .meta.json sidecar)")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--learning-rate", dest="learning_rate", type=float)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--width-scale", dest="width_scale", type=float,
                    help="shrink hidden widths for desk-scale runs")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="fit metrics of a weights file against a builtin")
    _add_common(sp)
    sp.add_argument("--weights")
    sp.add_argument("--fn")
    sp.add_argument("--domain")
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("estimate-range", help="estimate [f_min, f_max] by annealing")
    _add_common(sp)
    _add_objective_flags(sp)
    _add_anneal_flags(sp)
    sp.set_defaults(func=cmd_estimate_range)

    sp = sub.add_parser("oracle", help="brute-force tensor grid min/max")
    _add_common(sp)
    _add_objective_flags(sp)
    sp.add_argument("--points-per-dim", dest="points_per_dim", type=int)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compare", help="reflected vs classical chains with shared seeds")
    _add_common(sp)
    _add_objective_flags(sp)
    _add_anneal_flags(sp)
    sp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, WeightFormatError, GridBudgetExceeded, EvalBudgetExceeded,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
