"""Command-line pipeline: data generation, training, range estimation, oracles.

Every command is deterministic given its configuration: all seeds are
explicit and the config is echoed into every output artifact. Wall time goes
to the log, never into output files. The commands parse flags and config
files and pass the values on: the library checks them, and ``main`` maps
its ValueError to exit code 2. A command creates ``--out`` only once its
work is done, so a refused input leaves nothing behind.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import fields
from pathlib import Path

from .anneal import COOLINGS, MODES, AnnealConfig, LevelSummary
from .domain import BoxDomain
from .objectives import Dataset, Objective, _write_csv, sample_dataset
from .presets import PRESETS, builtin, preset
from .range_analysis import compare_modes, estimate_range, grid_oracle
from .resnet import ResNet
from .trainer import TrainConfig, evaluate_fit, save_loss_history, train

log = logging.getLogger("rangesa")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

PATH_OPTIONS = ("data", "weights")  # echoed by file name only


def _check(ok, message: str) -> None:
    if not ok:
        raise ValueError(message)


def parse_domain(spec) -> BoxDomain:
    """Accept 'l1,u1,...,ld,ud' strings or [[l, u], ...] lists."""
    if isinstance(spec, str):
        try:
            vals = [float(v) for v in spec.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse domain {spec!r}") from None
        _check(vals and len(vals) % 2 == 0,
               "domain needs an even number of values: l1,u1,...,ld,ud")
        spec = [vals[i:i + 2] for i in range(0, len(vals), 2)]
    try:
        return BoxDomain(tuple(map(tuple, spec)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad domain {spec!r}: {exc}") from exc


def _merged_options(args: argparse.Namespace) -> dict:
    """Config file values overridden by explicitly given flags."""
    opts = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        _check(path.exists(), f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
        _check(isinstance(doc, dict), f"config file {path} must hold a JSON object")
        unknown = [key for key in doc if key not in args.flags]
        _check(not unknown,
               f"config file {path}: unknown keys for {args.command}: {', '.join(unknown)}")
        for key, value in doc.items():
            if value is not None:
                _check_config_value(path, args.flags[key], value)
        opts.update(doc)
    for key, value in vars(args).items():
        if key in ("config", "command", "func", "flags"):
            continue
        if value is not None:
            opts[key] = value
    return opts


def _check_config_value(path: Path, flag: argparse.Action, value) -> None:
    """A config-file value must be JSON of its flag's type (a domain may be a list) and choices."""
    kinds = {int: (int,), float: (int, float), None: (str,)}[flag.type]
    kinds += (list,) if flag.dest == "domain" else ()
    allowed = flag.choices or [k.__name__ for k in kinds]
    _check(isinstance(value, kinds) and not isinstance(value, bool)
           and (flag.choices is None or value in flag.choices),
           f"config file {path}: {flag.dest} must be {' or '.join(allowed)}, got {value!r}")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(opts: dict, key: str):
    _check(opts.get(key) is not None, f"missing required option {_flag(key)}")
    return opts[key]


def _opt(opts: dict, key: str, default):
    """The option's value, or the default when it is absent (not when it is 0)."""
    value = opts.get(key)
    return default if value is None else value


def _load_objective(opts: dict) -> tuple[Objective, BoxDomain]:
    """Objective from --fn or --weights, and the domain to search it on."""
    fn = opts.get("fn")
    weights = opts.get("weights")
    _check((fn is None) != (weights is None), "exactly one of --fn or --weights is required")
    if fn is not None:
        objective, default_domain = builtin(fn), preset(fn).train_domain
    else:
        objective = ResNet.load(weights).as_objective()
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


def _config(cls, opts: dict):
    """``cls`` with every given option that names one of its fields."""
    return cls(**{f.name: opts[f.name] for f in fields(cls) if opts.get(f.name) is not None})


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
    objective, p = builtin(fn), preset(fn)
    domain = _resolve_domain(opts, p.train_domain, objective.dim)
    data = sample_dataset(objective, domain, m=_opt(opts, "m", p.default_m),
                          noise_sd=_opt(opts, "noise_sd", 0.1), seed=_opt(opts, "seed", 0))
    csv_path = _out_dir(opts) / f"{fn}_data.csv"
    data.save(csv_path)
    log.info("wrote %d rows to %s", len(data), csv_path)
    return EXIT_OK


def cmd_train(args) -> int:
    opts = _merged_options(args)
    p = preset(_require(opts, "preset"))
    data = Dataset.load(_require(opts, "data"))
    cfg = _config(TrainConfig, opts)
    net = p.architecture(seed=cfg.seed, width_scale=_opt(opts, "width_scale", 1.0))
    t0 = time.perf_counter()
    net, history = train(net, data, cfg)
    log.info("trained %d epochs in %.1f s (final loss %.6g)",
             cfg.epochs, time.perf_counter() - t0, history[-1])

    out = _out_dir(opts)
    net.save(out / "weights.json")
    save_loss_history(history, out / "loss_history.csv")
    report = evaluate_fit(net, p.objective, p.eval_domain, n=p.eval_n, seed=cfg.seed)
    _write_fit_report(out, report, opts)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    opts = _merged_options(args)
    net = ResNet.load(_require(opts, "weights"))
    fn = _require(opts, "fn")
    objective, p = builtin(fn), preset(fn)
    domain = _resolve_domain(opts, p.eval_domain, objective.dim)
    report = evaluate_fit(net, objective, domain, n=_opt(opts, "n", p.eval_n),
                          seed=_opt(opts, "seed", 0))
    _write_fit_report(_out_dir(opts), report, opts)
    return EXIT_OK


def cmd_estimate_range(args) -> int:
    opts = _merged_options(args)
    objective, domain = _load_objective(opts)
    cfg = _config(AnnealConfig, opts)
    t0 = time.perf_counter()
    result = estimate_range(objective, domain, cfg, n_seeds=_opt(opts, "n_seeds", 10))
    log.info("range [%.6g, %.6g] in %.1f s (%d evaluations)",
             result.f_min, result.f_max, time.perf_counter() - t0, result.eval_count)

    out = _out_dir(opts)
    doc = result.to_json_dict(cfg)
    doc["config"]["n_seeds"] = len(result.seeds_used)
    _write_json(out / "range_result.json", doc)
    labelled = [(kind, r) for kind, runs in result.runs.items() for r in runs]
    LevelSummary.of(labelled).to_csv(out / "levels.csv")
    return EXIT_OK


def cmd_oracle(args) -> int:
    opts = _merged_options(args)
    objective, domain = _load_objective(opts)
    t0 = time.perf_counter()
    result = grid_oracle(objective, domain, _require(opts, "points_per_dim"))
    log.info("oracle min %.6g / max %.6g over %d points in %.1f s",
             result.min_value, result.max_value, result.n_points, time.perf_counter() - t0)
    doc = result.to_json_dict()
    doc["config"] = _echo_config(opts)
    _write_json(_out_dir(opts) / "oracle.json", doc)
    return EXIT_OK


def cmd_compare(args) -> int:
    opts = _merged_options(args)
    objective, domain = _load_objective(opts)
    rows, runs = compare_modes(objective, domain, _config(AnnealConfig, opts),
                               _opt(opts, "n_seeds", 10))
    out = _out_dir(opts)
    LevelSummary.of((r.config.mode, r) for r in runs).to_csv(out / "levels.csv")
    _write_csv(out / "compare_summary.csv", rows[0], [[row[k] for row in rows] for k in rows[0]])
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
    sp.add_argument("--mode", choices=MODES)
    sp.add_argument("--cooling", choices=COOLINGS)
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
    sp.add_argument("--preset", choices=sorted(PRESETS))
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

    for sp in sub.choices.values():  # the keys a config file may set, and their checks
        sp.set_defaults(flags={a.dest: a for a in sp._actions if a.dest not in ("help", "config")})
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # a bad input: the library's ValueError names it (WeightFormatError,
    # GridBudgetExceeded and EvalBudgetExceeded among them)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
