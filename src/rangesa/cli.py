"""Command-line pipeline: data generation, training, range estimation, oracles.

Every command is deterministic given its configuration: all seeds are
explicit and the config is echoed into every output artifact. Wall time goes
to the log, never into output files. Flags are the only input: the commands
pass on only the flags given, for the library to check and default. ``main``
maps a ValueError, the parser's own errors among them (an ``--out`` that names a
file), and an input path that is missing or a directory to exit code 2 and one
``error:`` line. A command creates ``--out`` only once its work is done, so a
refused input leaves nothing behind.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from .anneal import COOLINGS, AnnealConfig, save_levels
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


def parse_domain(spec: str) -> BoxDomain:
    """The box of an 'l1,u1,...,ld,ud' string; BoxDomain checks its bounds."""
    try:
        vals = [float(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse domain {spec!r}") from None
    _check(len(vals) % 2 == 0, "domain needs an even number of values: l1,u1,...,ld,ud")
    return BoxDomain(tuple(zip(vals[::2], vals[1::2])))


def _given(opts: dict, *keys: str, **defaults) -> dict:
    """``defaults`` overridden by the options among ``keys`` and ``defaults`` that were given:
    what is left out takes the library's default."""
    return {**defaults, **{k: opts[k] for k in (*keys, *defaults) if k in opts}}


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
    return objective, _resolve_domain(opts, default_domain)


def _resolve_domain(opts: dict, default: BoxDomain | None) -> BoxDomain:
    """--domain, or else the default; the library checks its dimension."""
    if "domain" not in opts:
        _check(default is not None,
               "--domain is required when the objective comes from a weights file")
        return default
    return parse_domain(opts["domain"])


def _config(cls, opts: dict):
    """``cls`` with every given option that names one of its fields."""
    return cls(**_given(opts, *(f.name for f in fields(cls))))


def _out_dir(opts: dict) -> Path:
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(opts: dict) -> dict:
    # "out" is left out and input paths are cut to their file names, so artifacts
    # stay byte-identical across directories
    return {k: Path(v).name if k in PATH_OPTIONS else v
            for k, v in sorted(opts.items()) if k != "out"}


def _plain(obj):
    """``obj`` in JSON's types, all the way down: an ndarray as a list, a BoxDomain as its
    [lower, upper] pairs, any other dataclass as the fields its repr shows and a non-finite
    float as None; TypeError for any other type that JSON lacks."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, BoxDomain):
        obj = obj.bounds
    elif is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float):  # numpy's float64 among them
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    raise TypeError(f"cannot write a {type(obj).__name__} to a report")


def _write_json(path: Path, result, **keys) -> None:
    """Write a report: the result's fields, or a dict's items, and ``keys``, in JSON's
    types (see ``_plain``), with sorted keys and two-space indents."""
    doc = {**_plain(result), **_plain(keys)}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


# --- commands ----------------------------------------------------------


def cmd_generate_data(opts: dict) -> int:
    fn = opts["fn"]
    objective, p = builtin(fn), preset(fn)
    domain = _resolve_domain(opts, p.train_domain)
    data = sample_dataset(objective, domain, **_given(opts, "noise_sd", "seed", m=p.default_m))
    csv_path = _out_dir(opts) / f"{fn}_data.csv"
    data.save(csv_path)
    # the dataset's report: the sampled box, also when it came from the preset
    _write_json(csv_path.with_suffix(".meta.json"), {"domain": domain}, config=_echo_config(opts))
    log.info("wrote %d rows to %s", len(data), csv_path)
    return EXIT_OK


def cmd_train(opts: dict) -> int:
    p = preset(opts["preset"])
    data = Dataset.load(opts["data"])
    cfg = _config(TrainConfig, opts)
    net = p.architecture(seed=cfg.seed, **_given(opts, "width_scale"))
    t0 = time.perf_counter()
    net, history = train(net, data, cfg)
    log.info("trained %d epochs in %.1f s (final loss %.6g)",
             cfg.epochs, time.perf_counter() - t0, history[-1])

    out = _out_dir(opts)
    net.save(out / "weights.json")
    save_loss_history(history, out / "loss_history.csv")
    report = evaluate_fit(net, p.objective, p.eval_domain, n=p.eval_n, seed=cfg.seed)
    _write_json(out / "fit_report.json", report, config=_echo_config(opts))
    log.info("fit: MAE %.4f, MSE %.4f", report.mae, report.mse)
    return EXIT_OK


def cmd_evaluate(opts: dict) -> int:
    net = ResNet.load(opts["weights"])
    fn = opts["fn"]
    objective, p = builtin(fn), preset(fn)
    domain = _resolve_domain(opts, p.eval_domain)
    report = evaluate_fit(net, objective, domain, **_given(opts, "seed", n=p.eval_n))
    _write_json(_out_dir(opts) / "fit_report.json", report, config=_echo_config(opts))
    log.info("fit: MAE %.4f, MSE %.4f", report.mae, report.mse)
    return EXIT_OK


def cmd_estimate_range(opts: dict) -> int:
    objective, domain = _load_objective(opts)
    cfg = _config(AnnealConfig, opts)
    t0 = time.perf_counter()
    result = estimate_range(objective, domain, cfg, **_given(opts, "n_seeds", "seed"))
    log.info("range [%.6g, %.6g] in %.1f s (%d evaluations)",
             result.f_min, result.f_max, time.perf_counter() - t0, result.eval_count)

    out = _out_dir(opts)
    # the resolved schedule and the searched objective and box
    source = _echo_config({k: opts[k] for k in ("fn", "weights") if opts.get(k) is not None})
    config = {**asdict(cfg), "seed": result.seeds_used[0], "n_seeds": len(result.seeds_used),
              "domain": domain, **source}
    _write_json(out / "range_result.json", result, seed_agreement=result.seed_agreement(),
                config=config)
    save_levels([(kind, r) for kind, runs in result.runs.items() for r in runs],
                out / "levels.csv")
    return EXIT_OK


def cmd_oracle(opts: dict) -> int:
    objective, domain = _load_objective(opts)
    t0 = time.perf_counter()
    result = grid_oracle(objective, domain, opts["points_per_dim"])
    log.info("oracle min %.6g / max %.6g over %d points in %.1f s",
             result.min_value, result.max_value, result.n_points, time.perf_counter() - t0)
    _write_json(_out_dir(opts) / "oracle.json", result, config=_echo_config(opts))
    return EXIT_OK


def cmd_compare(opts: dict) -> int:
    objective, domain = _load_objective(opts)
    runs = compare_modes(objective, domain, _config(AnnealConfig, opts),
                         **_given(opts, "n_seeds", "seed"))
    # max_excursion: the largest overshoot of a state outside the box (0 for reflected runs)
    rows = [{"seed": r.seed, "mode": r.mode, "best_value": r.best_value,
             "iters_to_best": r.iters_to_best, "max_excursion": r.max_excursion} for r in runs]
    out = _out_dir(opts)
    save_levels([(r.mode, r) for r in runs], out / "levels.csv")
    _write_csv(out / "compare_summary.csv", rows[0], [[row[k] for row in rows] for k in rows[0]])
    _write_json(out / "compare_summary.json", {"rows": rows}, config=_echo_config(opts))
    return EXIT_OK


# --- argument parsing ---------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it: exit 2 and one line, no usage text
        raise ValueError(message)


def _directory(path: str) -> str:
    """--out's type: ``path``, if it or its nearest existing parent is a directory."""
    parent = Path(path)
    while not parent.exists():  # "." and "/" exist
        parent = parent.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(f"{parent} is not a directory")
    return path


def _add_objective_flags(sp):
    sp.add_argument("--fn", help="builtin objective name")
    sp.add_argument("--weights", help="weights file to wrap as the objective")
    sp.add_argument("--domain", help="bounds as l1,u1,...,ld,ud")


def _add_anneal_flags(sp):
    sp.add_argument("--seed", type=int)
    sp.add_argument("--t-max", dest="t_max", type=float)
    sp.add_argument("--t-min", dest="t_min", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--inner-iters", dest="inner_iters", type=int)
    sp.add_argument("--variance", dest="proposal_variance", type=float)
    sp.add_argument("--cooling", choices=COOLINGS)
    sp.add_argument("--n-seeds", dest="n_seeds", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rangesa",
        description="Output range estimation for black-box functions by "
        "simulated annealing with reflective boundary conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate-data", help="sample a noisy dataset from a builtin objective")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--fn", required=True)
    sp.add_argument("--domain")
    sp.add_argument("--m", type=int)
    sp.add_argument("--noise-sd", dest="noise_sd", type=float)
    sp.set_defaults(func=cmd_generate_data)

    sp = sub.add_parser("train", help="train a preset architecture on a dataset")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--preset", choices=sorted(PRESETS), required=True)
    sp.add_argument("--data", required=True, help="dataset CSV")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--learning-rate", dest="learning_rate", type=float)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--width-scale", dest="width_scale", type=float,
                    help="shrink hidden widths for desk-scale runs")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="fit metrics of a weights file against a builtin")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--fn", required=True)
    sp.add_argument("--domain")
    sp.add_argument("--n", type=int)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("estimate-range", help="estimate [f_min, f_max] by annealing")
    _add_objective_flags(sp)
    _add_anneal_flags(sp)
    sp.set_defaults(func=cmd_estimate_range)

    sp = sub.add_parser("oracle", help="brute-force tensor grid min/max")
    _add_objective_flags(sp)
    sp.add_argument("--points-per-dim", dest="points_per_dim", type=int, required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compare", help="reflected vs classical chains with shared seeds")
    _add_objective_flags(sp)
    _add_anneal_flags(sp)
    sp.set_defaults(func=cmd_compare)

    for sp in sub.choices.values():
        sp.add_argument("--out", type=_directory, help="output directory (default: current)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func({k: v for k, v in vars(args).items()
                          if v is not None and k not in ("command", "func")})
    # a bad input: the parser's or the library's ValueError names it (WeightFormatError
    # and every budget refusal among them), or an input path is missing or a directory
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
