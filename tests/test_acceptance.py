"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The full-scale training pipeline is gated behind RANGESA_FULL_SCALE=1; the
default run uses the documented reduced preset (hidden widths / 4, 300
epochs), which must satisfy the same oracle-gap bound.
"""
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from rangesa import (
    AnnealConfig,
    BoxDomain,
    Objective,
    TrainConfig,
    acceptance_probability,
    builtin,
    evaluate_fit,
    grid_oracle,
    run_many,
    sample_dataset,
    train,
)
from rangesa.cli import main
from rangesa.presets import preset
from rangesa.resnet import build_resnet
from support import fixed_temperature_chain, gibbs_density, gradient, traced


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_c1_reflection_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_domains, n_points = 1000, 250
    checks = 0
    for _ in range(n_domains):
        lo = float(rng.uniform(-50, 50))
        w = float(rng.uniform(0.01, 50))
        d = BoxDomain(((lo, lo + w),))
        y = rng.uniform(lo - 10 * w, lo + 11 * w, size=(n_points, 1))
        k = rng.integers(-5, 6, size=(n_points, 1)).astype(float)

        r = d.reflect(y)
        assert np.all(d.contains(r)), "closure"
        inside = d.sample_uniform(rng, n_points)
        assert np.array_equal(d.reflect(inside), inside), "identity on the box"
        shifted = d.reflect(y + 2.0 * k * w)
        scale = np.maximum(1.0, np.abs(y) + np.abs(2 * k * w))
        assert np.all(np.abs(shifted - r) <= 1e-9 * scale), "periodicity"
        t = rng.uniform(1e-6, 0.49 * w, size=(n_points, 1))
        hi = lo + w
        assert np.all(np.abs(d.reflect(hi + t) - (hi - t)) <= 1e-12 * np.maximum(1, abs(hi))
                      + 1e-12), "mirror at upper face"
        assert np.all(np.abs(d.reflect(lo - t) - (lo + t)) <= 1e-12 * np.maximum(1, abs(lo))
                      + 1e-12), "mirror at lower face"
        checks += 4 * n_points
    elapsed = time.perf_counter() - t0
    report("C1", checks >= 10**6 and elapsed < 10, f"{checks} checks in {elapsed:.1f}s")


def test_c2_acceptance_rule():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10**5):
        df = float(rng.normal() * 20)
        t = float(rng.uniform(1e-9, 100))
        got = acceptance_probability(df, t)
        expect = float(np.exp(min(0.0, -df) / t))
        denom = expect if expect > 0 else 1.0
        worst = max(worst, abs(got - expect) / denom)
    exact = (
        acceptance_probability(-3.2, 1.0) == 1.0
        and acceptance_probability(0.0, 1.0) == 1.0
        and acceptance_probability(1.0, 1.0) == float(np.exp(-1.0))
    )
    report("C2", worst <= 1e-12 and exact, f"max rel err {worst:.2e}")


def test_c3_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(50):
        depth = int(rng.integers(1, 4))
        widths = [2] + [int(rng.integers(2, 9)) for _ in range(depth)] + [1]
        net = build_resnet(widths, seed=trial)
        for _ in range(100):  # resample probes sitting on a ReLU breakpoint
            x = rng.uniform(-1, 1, 2)
            h, z_min = x[None, :], np.inf  # the layer formula, in forward's arithmetic
            for lyr in net.layers:
                z = h @ lyr.weights.T + lyr.bias
                z_min = min(z_min, np.min(np.abs(z)))
                a = np.maximum(z, 0.0) if lyr.has_activation else z
                h = a + h if lyr.has_skip else a
            if z_min > 1e-6:
                break
        target = float(rng.normal())
        g = gradient(net, x, target)

        h = 1e-5
        fd = np.empty_like(g)
        k = 0
        for lyr in net.layers:
            for arr in (lyr.weights, lyr.bias):
                flat = arr.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = (net.forward(x) - target) ** 2
                    flat[i] = orig - h
                    lm = (net.forward(x) - target) ** 2
                    flat[i] = orig
                    fd[k] = (lp - lm) / (2 * h)
                    k += 1
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    report("C3", worst < 1e-4 and elapsed < 30, f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_c4_fixed_temperature_stationarity():
    t0 = time.perf_counter()
    f = Objective(lambda x: x[..., 0] ** 2, 1, name="x2")
    dom = BoxDomain(((-1.0, 1.0),))
    temperature = 0.5
    pts = fixed_temperature_chain(
        f, dom, temperature, variance=0.04, n_steps=2 * 10**5, seed=404, burn_in=5000
    )
    nbins = 50
    edges = np.linspace(-1, 1, nbins + 1)
    hist, _ = np.histogram(pts[:, 0], bins=edges)
    emp = hist / hist.sum()
    xs, dens = gibbs_density(f, dom, temperature, grid_n=4001)
    probs = np.empty(nbins)
    for i in range(nbins):
        m = (xs >= edges[i]) & (xs <= edges[i + 1])
        probs[i] = np.trapezoid(dens[m], xs[m])
    probs /= probs.sum()
    tv = 0.5 * float(np.abs(emp - probs).sum())
    elapsed = time.perf_counter() - t0
    report("C4", tv <= 0.05 and elapsed < 10, f"TV {tv:.4f} in {elapsed:.1f}s")


def _seeded_best_values(fn, dom, n_seeds=20, **cfg_kwargs):
    # one lockstep batch: each run is bit-identical to run(..., replace(cfg, seed=s))
    cfg = AnnealConfig(**cfg_kwargs)
    return run_many(builtin(fn), dom, [replace(cfg, seed=s) for s in range(n_seeds)])


def test_c5_ackley_minimization():
    t0 = time.perf_counter()
    results = _seeded_best_values("ackley", BoxDomain.cube(-4, 4, 2))
    vals = np.array([r.best_value for r in results])
    elapsed = time.perf_counter() - t0
    ok = np.median(vals) <= 0.05 and vals.max() <= 0.5 and elapsed < 60
    report("C5", ok, f"median {np.median(vals):.4f}, worst {vals.max():.4f}, {elapsed:.0f}s")


def test_c6_dropwave_minimization():
    t0 = time.perf_counter()
    results = _seeded_best_values("dropwave", BoxDomain.cube(-5.12, 5.12, 2))
    vals = np.array([r.best_value for r in results])
    elapsed = time.perf_counter() - t0
    ok = np.median(vals) <= -0.98 and vals.max() <= -0.90 and elapsed < 60
    report("C6", ok, f"median {np.median(vals):.4f}, worst {vals.max():.4f}, {elapsed:.0f}s")


def test_c7_multi_minima():
    t0 = time.perf_counter()
    results = _seeded_best_values("multimin", BoxDomain.cube(-3, 3, 3))
    corners = set()
    worst_dist, worst_val = 0.0, 0.0
    for r in results:
        corner = np.sign(r.best)
        corner[corner == 0] = 1.0
        dist = float(np.linalg.norm(r.best - corner))
        worst_dist = max(worst_dist, dist)
        worst_val = max(worst_val, r.best_value)
        corners.add(tuple(corner))
    elapsed = time.perf_counter() - t0
    ok = worst_dist <= 0.2 and worst_val <= 0.05 and len(corners) >= 2 and elapsed < 120
    report(
        "C7", ok,
        f"worst dist {worst_dist:.3f}, worst value {worst_val:.4f}, "
        f"{len(corners)} distinct minima, {elapsed:.0f}s",
    )


def _ackley_pipeline(width_scale, epochs, time_budget, criterion):
    t0 = time.perf_counter()
    f = builtin("ackley")
    dom = BoxDomain.cube(-4, 4, 2)
    data = sample_dataset(f, dom, m=2000, noise_sd=0.1, seed=7)
    net = preset("ackley").architecture(seed=7, width_scale=width_scale)
    net, _ = train(net, data, TrainConfig(epochs=epochs, learning_rate=0.001, seed=7))
    fit = evaluate_fit(net, f, BoxDomain.cube(-5, 5, 2), n=1000, seed=7)

    obj = net.as_objective()
    oracle = grid_oracle(obj, dom, 801)
    runs = run_many(obj, dom, [AnnealConfig(seed=s) for s in range(5)])
    sa_min = min(r.best_value for r in runs)
    gap = abs(sa_min - oracle.min_value)
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.1 and fit.mae <= 2.0 and elapsed < time_budget
    report(criterion, ok, f"MAE {fit.mae:.3f}, oracle gap {gap:.4f}, {elapsed:.0f}s")


def test_c8_ackley_pipeline_reduced():
    _ackley_pipeline(width_scale=0.25, epochs=300, time_budget=180, criterion="C8")


@pytest.mark.skipif(
    os.environ.get("RANGESA_FULL_SCALE") != "1",
    reason="full-scale training run; set RANGESA_FULL_SCALE=1 (target < 30 min)",
)
def test_c8_ackley_pipeline_full_scale():
    _ackley_pipeline(width_scale=1.0, epochs=1000, time_budget=1800, criterion="C8-full")


def test_c9_dropwave_pipeline():
    t0 = time.perf_counter()
    f = builtin("dropwave")
    dom = BoxDomain.cube(-5.12, 5.12, 2)
    data = sample_dataset(f, dom, m=6000, noise_sd=0.02, seed=11)
    net = preset("dropwave").architecture(seed=11, width_scale=0.25)
    net, _ = train(net, data, TrainConfig(epochs=600, seed=11))
    fit = evaluate_fit(net, f, dom, n=1500, seed=11)

    obj = net.as_objective()
    oracle = grid_oracle(obj, dom, 801)
    runs = run_many(obj, dom, [AnnealConfig(seed=s) for s in range(5)])
    sa_min = min(r.best_value for r in runs)
    gap = abs(sa_min - oracle.min_value)
    elapsed = time.perf_counter() - t0
    ok = fit.mae <= 0.1 and gap <= 0.05
    report("C9", ok, f"MAE {fit.mae:.4f}, oracle gap {gap:.4f}, {elapsed:.0f}s")


def test_c10_classical_vs_reflected():
    f = builtin("ackley")
    dom = BoxDomain.cube(-4, 4, 2)
    cfg = AnnealConfig(proposal_variance=4.0)
    oracle_min = grid_oracle(f, dom, 801).min_value

    def iters_to(trace, threshold):
        hit = np.where(trace.best_values <= threshold)[0]
        return hit[0] if len(hit) else np.inf

    wins = 0
    excursions_ok = True
    runs = traced(f, dom, [replace(cfg, seed=s, mode=m) for s in range(20)
                           for m in ("reflected", "classical")])
    for (refl, refl_trace), (clas, clas_trace) in zip(runs[::2], runs[1::2]):
        excursions_ok &= clas.max_excursion > 0
        excursions_ok &= refl.max_excursion == 0
        wins += iters_to(refl_trace, oracle_min + 0.1) <= iters_to(clas_trace, oracle_min + 0.1)
    ok = excursions_ok and wins >= 14
    report("C10", ok, f"reflected no faster in {20 - wins}/20 seeds; excursions ok={excursions_ok}")


def _written(path):
    return sorted(p.name for p in path.iterdir())


def test_c11_command_determinism(tmp_path):
    data_args = ["generate-data", "--fn", "ackley", "--m", "60", "--seed", "5"]
    # every file each command writes
    reruns = {
        "generate-data": (data_args, ["ackley_data.csv", "ackley_data.meta.json"]),
        "estimate-range": (
            ["estimate-range", "--fn", "ackley", "--n-seeds", "1", "--seed", "3",
             "--t-min", "0.2"],
            ["levels.csv", "range_result.json"],
        ),
        "oracle": (
            ["oracle", "--fn", "ackley", "--points-per-dim", "21"],
            ["oracle.json"],
        ),
        "compare": (
            ["compare", "--fn", "ackley", "--n-seeds", "1", "--seed", "2",
             "--t-min", "0.5"],
            ["compare_summary.csv", "compare_summary.json", "levels.csv"],
        ),
    }
    all_ok = True
    for name, (args, files) in reruns.items():
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        all_ok &= _written(a) == _written(b) == files
        for fname in files:
            all_ok &= (a / fname).read_bytes() == (b / fname).read_bytes()

    # train/evaluate round: dataset from the generate-data output above
    data_dir = tmp_path / "generate-data" / "a"
    for sub in ("ta", "tb"):
        rc = main(["train", "--preset", "ackley", "--data", str(data_dir / "ackley_data.csv"),
                   "--epochs", "3", "--width-scale", "0.05", "--seed", "1",
                   "--out", str(tmp_path / sub)])
        assert rc == 0
    all_ok &= _written(tmp_path / "ta") == _written(tmp_path / "tb") == \
        ["fit_report.json", "loss_history.csv", "weights.json"]
    for fname in ("weights.json", "loss_history.csv", "fit_report.json"):
        all_ok &= (tmp_path / "ta" / fname).read_bytes() == (tmp_path / "tb" / fname).read_bytes()
    for sub in ("ea", "eb"):
        rc = main(["evaluate", "--weights", str(tmp_path / "ta" / "weights.json"),
                   "--fn", "ackley", "--n", "40", "--seed", "2", "--out", str(tmp_path / sub)])
        assert rc == 0
    all_ok &= _written(tmp_path / "ea") == _written(tmp_path / "eb") == ["fit_report.json"]
    all_ok &= (tmp_path / "ea" / "fit_report.json").read_bytes() == \
        (tmp_path / "eb" / "fit_report.json").read_bytes()
    report("C11", all_ok, "all commands byte-identical on rerun")
