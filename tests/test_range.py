import json
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rangesa import (
    AnnealConfig, BoxDomain, LevelSummary, Objective, builtin, compare_modes, estimate_range,
    grid_oracle,
)
from rangesa.anneal import LEVEL_COLUMNS, START_REDRAWS
from rangesa.cli import _plain, _write_json, main
from rangesa.presets import preset
from rangesa.objectives import ROW_BLOCK
from rangesa import range_analysis
from rangesa.range_analysis import RangeResult, _oracle_workers
from rangesa.resnet import build_resnet
from support import run, traced

SRC = Path(__file__).resolve().parents[1] / "src"


def _negated(f):
    return Objective(lambda X: -f.evaluate_many(X), f.dim)


class TestGridOracle:
    def test_endpoints_on_linear(self):
        f = Objective(lambda x: x[..., 0], 1)
        res = grid_oracle(f, BoxDomain(((0, 1),)), points_per_dim=2)
        assert res.min_value == 0.0 and res.max_value == 1.0
        assert res.min_point[0] == 0.0 and res.max_point[0] == 1.0

    def test_ackley_dense_grid_contains_origin(self):
        res = grid_oracle(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 801)
        assert res.min_value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.min_point, [0.0, 0.0], atol=1e-12)
        assert res.n_points == 801**2

    def test_multimin_grid_contains_corners(self):
        res = grid_oracle(builtin("multimin"), BoxDomain.cube(-3, 3, 3), 61)
        assert res.min_value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(np.abs(res.min_point), 1.0, atol=1e-12)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="lower points_per_dim"):
            grid_oracle(builtin("multimin"), BoxDomain.cube(-3, 3, 3), 10**3)

    def test_points_per_dim_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 1)

    def test_deterministic(self):
        a = grid_oracle(builtin("dropwave"), BoxDomain.cube(-5.12, 5.12, 2), 101)
        b = grid_oracle(builtin("dropwave"), BoxDomain.cube(-5.12, 5.12, 2), 101)
        assert a.min_value == b.min_value
        assert np.array_equal(a.min_point, b.min_point)


class TestEstimateRange:
    def test_constant_objective(self):
        const = Objective(lambda x: np.full(np.asarray(x).shape[:-1], 3.0), 2)
        res = estimate_range(const, BoxDomain.cube(-1, 1, 2), AnnealConfig(), n_seeds=2)
        assert res.f_min == 3.0 and res.f_max == 3.0

    def test_linear_objective_extremes_at_faces(self):
        f = Objective(lambda x: x[..., 0], 2)
        res = estimate_range(f, BoxDomain.cube(0, 1, 2), AnnealConfig(), n_seeds=3)
        assert res.f_min == pytest.approx(0.0, abs=1e-2)
        assert res.f_max == pytest.approx(1.0, abs=1e-2)

    def test_dropwave_analytic_minimum(self):
        res = estimate_range(
            builtin("dropwave"), BoxDomain.cube(-5.12, 5.12, 2), AnnealConfig(), n_seeds=5
        )
        assert res.f_min == pytest.approx(-1.0, abs=0.05)

    def test_witnesses_reproduce_endpoints(self):
        f = builtin("ackley")
        dom = BoxDomain.cube(-4, 4, 2)
        res = estimate_range(f, dom, AnnealConfig(), n_seeds=2, seed=1)
        assert f(res.x_min) == res.f_min
        assert f(res.x_max) == res.f_max
        assert dom.contains(res.x_min) and dom.contains(res.x_max)

    def test_negation_duality_exact_with_shared_seeds(self):
        f = builtin("ackley")
        dom = BoxDomain.cube(-4, 4, 2)
        a = estimate_range(f, dom, AnnealConfig(), n_seeds=3, seed=2)
        b = estimate_range(_negated(f), dom, AnnealConfig(), n_seeds=3, seed=2)
        assert b.f_min == -a.f_max
        assert b.f_max == -a.f_min
        assert np.array_equal(b.x_min, a.x_max)
        assert np.array_equal(b.x_max, a.x_min)

    def test_chains_equal_single_runs(self):
        # the 2 x n_seeds lockstep chains are the runs on f and on -f, bit for bit
        f = builtin("ackley")
        dom = BoxDomain.cube(-4, 4, 2)
        cfg = AnnealConfig(t_min=0.05)
        res = estimate_range(f, dom, cfg, n_seeds=3, seed=7)
        batch = traced(f, dom, cfg, [7, 8, 9] * 2, [1] * 3 + [-1] * 3)  # estimate_range's batch
        for kind, g, sign, records in (("min", f, 1, batch[:3]),
                                       ("max", _negated(f), -1, batch[3:])):
            assert [(r.config, r.seed, r.mode) for r in res.runs[kind]] == \
                [(cfg, s, "reflected") for s in (7, 8, 9)]
            for r, (same, trace) in zip(res.runs[kind], records):
                single, single_trace = run(g, dom, cfg, r.seed)
                for name in ("iterations", "temperatures", "points", "values", "accepted",
                             "best_values"):
                    assert np.array_equal(getattr(trace, name), getattr(single_trace, name))
                # both hold f's value; the single run minimized g = sign * f
                assert r.best_value == same.best_value == sign * single.best_value
                for other in (same, single):
                    assert np.array_equal(r.best, other.best)
                    assert r.eval_count == other.eval_count
                    assert r.iters_to_best == other.iters_to_best
                for field in fields(LevelSummary):
                    assert np.array_equal(getattr(r.levels, field.name),
                                          getattr(same.levels, field.name))
        assert res.eval_count == 6 * res.runs["min"][0].eval_count + 2

    def test_interval_type_and_seed_bookkeeping(self, tmp_path):
        f = builtin("ackley")
        res = estimate_range(f, BoxDomain.cube(-4, 4, 2), AnnealConfig(), n_seeds=3, seed=5)
        assert res.interval_type == "inner"
        assert res.seeds_used == [5, 6, 7]
        _write_json(tmp_path / "range.json", res, config=AnnealConfig(delta=0.9))
        doc = json.loads((tmp_path / "range.json").read_text())
        assert doc["interval_type"] == "inner" and "runs" not in doc
        assert doc["seeds_used"] == [5, 6, 7] and doc["config"]["delta"] == 0.9

    def test_n_seeds_validation(self):
        with pytest.raises(ValueError):
            estimate_range(builtin("ackley"), BoxDomain.cube(-4, 4, 2), AnnealConfig(), n_seeds=0)

    def test_sa_never_beats_grid_oracle_min(self):
        f = builtin("dropwave")
        dom = BoxDomain.cube(-5.12, 5.12, 2)
        res = estimate_range(f, dom, AnnealConfig(), n_seeds=3, seed=3)
        # both are inner approximations of the true min (-1); SA stays above it
        assert res.f_min >= -1.0 - 1e-12


def test_tanh_network_is_analysed_as_a_black_box():
    # the method needs only point values: a tanh MLP written here, no ResNet, runs
    # through both. Its extremes lie on the box's faces, which the grid includes, so
    # the inner interval lies within the grid's range, and reaches it within 1e-4
    rng = np.random.default_rng(0)
    W1, b1, w2 = rng.normal(size=(8, 2)), rng.normal(size=8), rng.normal(size=8)
    f = Objective(lambda X: np.tanh(X @ W1.T + b1) @ w2, 2)
    dom = BoxDomain.cube(-2, 2, 2)
    res = estimate_range(f, dom, AnnealConfig(), n_seeds=3)
    grid = grid_oracle(f, dom, 401)
    for x, value in ((res.x_min, res.f_min), (res.x_max, res.f_max)):
        assert dom.contains(x) and f(x) == value
    width = grid.max_value - grid.min_value
    assert grid.min_value <= res.f_min < grid.min_value + 1e-4 * width
    assert grid.max_value - 1e-4 * width < res.f_max <= grid.max_value


@pytest.mark.parametrize("call", [estimate_range, compare_modes])
def test_over_budget_n_seeds_builds_no_config(monkeypatch, call):
    # the budget is checked on n_seeds itself, before a config, a list of 600,000 seeds or
    # run_many, whose own check would see that list
    cfg, built = AnnealConfig(), []
    post_init = AnnealConfig.__post_init__
    monkeypatch.setattr(AnnealConfig, "__post_init__", lambda c: built.append(c) or post_init(c))
    monkeypatch.setattr(range_analysis, "run_many", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="n_seeds"):
        call(builtin("ackley"), BoxDomain.cube(-4, 4, 2), cfg, n_seeds=300_000)
    assert built == []


def test_range_result_orders_endpoints():
    with pytest.raises(ValueError):
        RangeResult(
            f_min=1.0, f_max=0.0, x_min=np.zeros(2), x_max=np.zeros(2),
            eval_count=0, seeds_used=[0],
        )


def _nan_left(x):
    # sphere on the right half of the square, NaN where x1 < 0
    x = np.asarray(x, dtype=float)
    return np.where(x[..., 0] < 0, np.nan, np.sum(x**2, axis=-1))


NAN_LEFT = Objective(_nan_left, 2)
ALL_NAN = Objective(lambda x: np.full(np.shape(x)[:-1], np.nan), 2)
# finite only on the strip x1 > 0.985, 0.75% of [-1, 1]^2
NAN_BUT_STRIP = Objective(
    lambda x: np.where(x[..., 0] > 0.985, np.sum(x**2, axis=-1), np.nan), 2
)


@pytest.mark.parametrize("seed", [2, 3])
def test_nan_start_is_redrawn(seed):
    # these seeds draw their start in the NaN half: the chain redraws it, then moves
    r, trace = run(NAN_LEFT, BoxDomain.cube(-1, 1, 2), AnnealConfig(delta=0.7), seed)
    assert np.isfinite(r.best_value) and r.best[0] >= 0
    assert trace.accepted.any()
    assert r.eval_count > 1 + len(trace)  # the redraws are counted


@pytest.mark.parametrize("seed", [2, 3])
def test_estimate_range_skips_nan_chains(seed):
    # some chains find no finite start within their redraws and never move;
    # the endpoints come from the others
    dom = BoxDomain.cube(-1, 1, 2)
    cfg = AnnealConfig(delta=0.7)
    res = estimate_range(NAN_BUT_STRIP, dom, cfg, n_seeds=4, seed=seed)
    seeds = list(range(seed, seed + 4))
    batch = traced(NAN_BUT_STRIP, dom, cfg, seeds * 2, [1] * 4 + [-1] * 4)  # estimate_range's
    for runs, records in ((res.runs["min"], batch[:4]), (res.runs["max"], batch[4:])):
        nan = [np.isnan(r.best_value) for r in runs]
        assert any(nan) and not all(nan)
        for r, (same, trace), stuck in zip(runs, records, nan):
            assert r.eval_count == same.eval_count
            if stuck:
                assert r.eval_count == 1 + START_REDRAWS + len(trace)
                assert not trace.accepted.any()
    finite_mins = [r.best_value for r in res.runs["min"] if np.isfinite(r.best_value)]
    finite_maxs = [r.best_value for r in res.runs["max"] if np.isfinite(r.best_value)]
    assert res.f_min == min(finite_mins) and res.f_max == max(finite_maxs)
    assert res.x_min[0] > 0.985 and res.x_max[0] > 0.985
    with pytest.raises(ValueError, match="no finite"):
        estimate_range(ALL_NAN, dom, cfg, n_seeds=2, seed=seed)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_strip_does_not_trap_chains(value):
    # a value that is -inf after the sign would be accepted with probability 1
    # and held for good; the objective returns it as NaN, which is rejected
    f = Objective(lambda x: np.where(x[:, 0] < -0.9, value, np.sum(x**2, axis=1)), 2)
    dom = BoxDomain.cube(-1, 1, 2)
    cfg = AnnealConfig(t_max=1.0, t_min=1e-2, delta=0.9, inner_iters=50)
    res = estimate_range(f, dom, cfg, n_seeds=5)
    assert 0.0 <= res.f_min < 1e-3 and 1.9 < res.f_max <= 2.0
    assert res.x_min[0] >= -0.9 and res.x_max[0] >= -0.9
    for runs in res.runs.values():
        assert all(np.isfinite(r.best_value) for r in runs)


def _overflowing_net():
    # 0 where x1 <= 0; where x1 > 0.113 the output 4 x 400 x1 x 1e306 overflows
    net = build_resnet([2, 4, 1])
    net.layers[0].weights[:] = [400.0, 0.0]
    net.layers[1].weights[:] = 1e306
    return net


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_estimate_range_survives_network_overflow(tmp_path):
    net = _overflowing_net()
    with pytest.raises(FloatingPointError, match="layer 2"):
        net.forward(np.array([1.0, 0.0]))  # training and direct calls still raise
    f = net.as_objective()
    assert np.isnan(f(np.array([1.0, 0.0]))) and f(np.array([-1.0, 0.0])) == 0.0
    assert np.array_equal(np.isnan(f.evaluate_many([[1.0, 0.0], [-1.0, 0.0]])), [True, False])

    dom = BoxDomain.cube(-1, 1, 2)
    res = estimate_range(f, dom, AnnealConfig(delta=0.7), n_seeds=3)
    assert res.f_min == 0.0 and 0.0 < res.f_max < np.inf
    assert f(res.x_max) == res.f_max and dom.contains(res.x_max)
    net.save(tmp_path / "weights.json")
    assert main(["estimate-range", "--weights", str(tmp_path / "weights.json"),
                 "--domain=-1,1,-1,1", "--n-seeds", "2", "--delta", "0.7",
                 "--out", str(tmp_path / "out")]) == 0


def test_level_means_of_overflowing_network_stay_finite(tmp_path):
    # the max chains hold values near the largest float, whose plain sum over a level overflows
    _overflowing_net().save(tmp_path / "weights.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate-range", "--weights", str(tmp_path / "weights.json"),
                     "--domain=-1,1,-1,1", "--n-seeds", "2", "--delta", "0.7",
                     "--out", str(tmp_path / "out")]) == 0
    means = np.loadtxt(tmp_path / "out" / "levels.csv", delimiter=",", skiprows=1,
                       usecols=LEVEL_COLUMNS.index("mean_value"))
    assert np.isfinite(means).all() and np.abs(means).max() > 1e308


@pytest.mark.parametrize("openblas", [None, "1"])
def test_network_overflow_raises_no_warning(monkeypatch, openblas):
    # the NaN rows and the Metropolis rule's overflow to exp(-inf) = 0 are expected;
    # numpy's error state is per thread, so each oracle worker sets its own
    _set_workers(monkeypatch, openblas=openblas)
    f, dom = _overflowing_net().as_objective(), BoxDomain.cube(-1, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimate_range(f, dom, AnnealConfig(delta=0.7), n_seeds=3)
        oracle = grid_oracle(f, dom, 101)
    assert res.f_min == oracle.min_value == 0.0
    assert 0.0 < res.f_max < np.inf and 0.0 < oracle.max_value < np.inf


def test_grid_oracle_skips_nan_values():
    dom = BoxDomain.cube(-1, 1, 2)
    res = grid_oracle(NAN_LEFT, dom, 5)
    assert res.min_value == 0.0 and np.array_equal(res.min_point, [0.0, 0.0])
    # (1, -1) and (1, 1) tie at 2; the first in row-major order wins
    assert res.max_value == 2.0 and np.array_equal(res.max_point, [1.0, -1.0])
    assert json.loads(json.dumps(res, default=_plain))["max_point"] == [1.0, -1.0]
    with pytest.raises(ValueError, match="no finite"):
        grid_oracle(ALL_NAN, dom, 5)


def _with_ties(ties_min, ties_max):
    """x1 + x2 scaled by 0.1, except -5 at the points ties_min and 5 at ties_max."""
    def fn(X):
        v = np.sum(X, axis=1) * 0.1
        for p in ties_min:
            v[np.all(X == p, axis=1)] = -5.0
        for p in ties_max:
            v[np.all(X == p, axis=1)] = 5.0
        return v
    return Objective(fn, 2)


def _grid(n):
    axis = np.linspace(-1, 1, n)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def _assert_whole_grid_extremes(res, f, grid):
    vals = f.evaluate_many(grid)
    assert res.min_value == vals[np.argmin(vals)]
    assert np.array_equal(res.min_point, grid[np.argmin(vals)])
    assert res.max_value == vals[np.argmax(vals)]
    assert np.array_equal(res.max_point, grid[np.argmax(vals)])


def _set_workers(monkeypatch, openblas=None, omp=None, cpus=4):
    """Environment and CPU affinity for ``_oracle_workers``."""
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_grid_oracle_first_extreme_across_chunks():
    # 41^2 = 1,681 points span two chunks; f ties at its minimum on both sides of the
    # chunk boundary and at its maximum within the second chunk
    n = 41
    grid = _grid(n)
    boundary = ROW_BLOCK
    assert boundary < len(grid)
    f = _with_ties({tuple(grid[boundary - 3]), tuple(grid[boundary + 2])},
                   {tuple(grid[boundary + 5]), tuple(grid[len(grid) - 1])})
    res = grid_oracle(f, BoxDomain.cube(-1, 1, 2), n)
    _assert_whole_grid_extremes(res, f, grid)
    assert res.min_value == -5.0 and np.array_equal(res.min_point, grid[boundary - 3])
    assert res.max_value == 5.0 and np.array_equal(res.max_point, grid[boundary + 5])


@pytest.mark.parametrize("env, workers", [
    (dict(), 1),                            # BLAS may use every CPU: serial
    (dict(openblas="1"), 4),
    (dict(openblas="2"), 2),
    (dict(openblas="8"), 1),
    (dict(omp="1"), 4),
    (dict(openblas="4", omp="1"), 1),       # OPENBLAS_NUM_THREADS first
    (dict(openblas="1", cpus=1), 1),
    (dict(openblas="0"), 1),
    (dict(omp="2,1"), 1),
])
def test_oracle_workers_fill_cpus_left_by_blas(monkeypatch, env, workers):
    _set_workers(monkeypatch, **env)
    assert _oracle_workers() == workers


@pytest.mark.parametrize("env", [dict(), dict(openblas="1"), dict(openblas="2"),
                                 dict(openblas="1", cpus=64)])
def test_grid_oracle_workers_equal_whole_grid(monkeypatch, env):
    # 101^2 = 10,201 points in 10 chunks, spread over 1, 4, 2 or 10 workers (more than
    # this machine's cores, switching threads every microsecond). The minimum ties across
    # the chunk boundary of test_grid_oracle_first_extreme_across_chunks and in chunks 2
    # and 7; the maximum first in chunk 5, later in chunk 8 (workers 1 and 0 of 2 or 4)
    _set_workers(monkeypatch, **env)
    n, c = 101, ROW_BLOCK
    workers = min(_oracle_workers(), -(-n * n // c))
    grid = _grid(n)
    ties = _with_ties({tuple(grid[i]) for i in (c - 3, c + 2, 2 * c + 40, 7 * c + 9)},
                      {tuple(grid[i]) for i in (8 * c + 1, 5 * c + 8, 5 * c + 900)})
    threads, all_started = set(), threading.Barrier(workers, timeout=30)

    def fn(X):
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            all_started.wait()  # each worker holds its first chunk until all hold one
        return ties.evaluate_many(X)

    f = Objective(fn, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = grid_oracle(f, BoxDomain.cube(-1, 1, 2), n)
    finally:
        sys.setswitchinterval(interval)
    if workers == 1:
        assert threads == {threading.get_ident()}
    else:
        assert len(threads) == workers and threading.get_ident() not in threads
    _assert_whole_grid_extremes(res, ties, grid)
    assert np.array_equal(res.min_point, grid[c - 3])
    assert np.array_equal(res.max_point, grid[5 * c + 8])


class _WorkerFailure(Exception):
    pass


def test_grid_oracle_worker_error_propagates(monkeypatch):
    _set_workers(monkeypatch, openblas="1")

    def fn(X):
        if np.any(np.all(X == [1.0, 1.0], axis=1)):  # the last point, in the last chunk
            raise _WorkerFailure("bad row")
        return np.sum(X, axis=1)

    with pytest.raises(_WorkerFailure, match="bad row"):
        grid_oracle(Objective(fn, 2), BoxDomain.cube(-1, 1, 2), 101)


def test_grid_oracle_network_same_with_workers(monkeypatch):
    f = preset("dropwave").architecture(seed=2, width_scale=0.25).as_objective()
    dom = BoxDomain.cube(-5, 5, 2)
    _set_workers(monkeypatch)
    serial = grid_oracle(f, dom, 121)
    _set_workers(monkeypatch, openblas="1")
    parallel = grid_oracle(f, dom, 121)
    assert json.dumps(parallel, default=_plain) == json.dumps(serial, default=_plain)


def test_grid_oracle_memory_stays_in_chunks(monkeypatch):
    # a memory guard, not a timing gate: in 65,536-row chunks this call peaked at 208 MB;
    # four workers hold four chunks at a time
    _set_workers(monkeypatch, openblas="1")
    f = preset("dropwave").architecture(seed=1, width_scale=0.25).as_objective()
    tracemalloc.start()
    try:
        grid_oracle(f, BoxDomain.cube(-5.12, 5.12, 2), 201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults")
def test_grid_oracle_network_takes_no_page_faults():
    # each worker thread writes a network's layers into two buffers of its own, allocated
    # once; a 1,024-row chunk whose layers allocated their 1 MiB outputs afresh took about
    # 540 faults. A fresh interpreter, so earlier tests do not shape the allocator's state
    # (freeing a large block raises glibc's mmap threshold and hides the faults).
    script = textwrap.dedent("""
        import resource
        from rangesa import BoxDomain, grid_oracle, range_analysis
        from rangesa.objectives import ROW_BLOCK
        from rangesa.presets import preset
        range_analysis._oracle_workers = lambda: 2
        f = preset("dropwave").architecture(seed=1, width_scale=0.25).as_objective()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        grid_oracle(f, BoxDomain.cube(-5.12, 5.12, 2), 401)
        chunks = -(-401**2 // ROW_BLOCK)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / chunks)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50, proc.stdout
