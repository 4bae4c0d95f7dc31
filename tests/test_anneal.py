import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rangesa import (
    AnnealConfig,
    BoxDomain,
    Objective,
    acceptance_probability,
    builtin,
    compare_modes,
    estimate_range,
)
from rangesa.anneal import LEVEL_COLUMNS, MODES, run_many
from rangesa.objectives import _write_csv
from support import Trace, fixed_temperature_chain, gibbs_density, run, traced

SRC = Path(__file__).resolve().parents[1] / "src"
SPHERE = Objective(lambda x: np.sum(np.asarray(x) ** 2, axis=-1), 2, name="sphere")
PARABOLA_1D = Objective(lambda x: x[..., 0] ** 2, 1, name="x2")


class TestConfig:
    def test_defaults_valid(self):
        cfg = AnnealConfig()
        assert cfg.mode == "reflected" and cfg.cooling == "theorem"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_max": 1.0, "t_min": 2.0},
            {"delta": 1.0},
            {"delta": 0.0},
            {"inner_iters": 0},
            {"proposal_variance": -1.0},
            {"mode": "bogus"},
            {"cooling": "bogus"},
            {"t_max": np.inf},
            {"t_min": np.nan},
            {"proposal_variance": np.inf},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnnealConfig(**kwargs)

    def test_theorem_cooling_is_geometric(self):
        cfg = AnnealConfig(t_max=10, t_min=1e-3, delta=0.95)
        levels = cfg.temperature_levels()
        expect = [10 * 0.95**i for i in range(len(levels))]
        assert levels == pytest.approx(expect, rel=1e-12)
        assert levels[-1] > 1e-3 and 10 * 0.95 ** len(levels) <= 1e-3

    def test_algorithm1_cooling_decays_faster(self):
        cfg_a = AnnealConfig(cooling="algorithm1")
        cfg_t = AnnealConfig(cooling="theorem")
        la, lt = cfg_a.temperature_levels(), cfg_t.temperature_levels()
        assert len(la) < len(lt)
        # T_i = T_{i-1} * delta^i, super-geometric
        assert la[2] == pytest.approx(10 * 0.95**3, rel=1e-12)

    def test_levels_strictly_decreasing_positive(self):
        for cooling in ("theorem", "algorithm1"):
            levels = AnnealConfig(cooling=cooling).temperature_levels()
            arr = np.array(levels)
            assert np.all(arr > 0) and np.all(np.diff(arr) < 0)

    @pytest.mark.parametrize("cooling", ["theorem", "algorithm1"])
    @pytest.mark.parametrize(
        "t_max, t_min, delta",
        [(10.0, 1e-3, 0.95), (1.0, 0.5, 0.5), (2.0, 1.0, 0.5), (1.0, 1 / 64, 0.5),
         (1e10, 1e-10, 0.999), (3.0, 2.9, 0.9999), (1e5, 1e-5, 0.01)],
    )
    def test_level_bound_covers_levels(self, t_max, t_min, delta, cooling):
        cfg = AnnealConfig(t_max=t_max, t_min=t_min, delta=delta, cooling=cooling)
        n = len(cfg.temperature_levels())
        assert n <= cfg._max_levels() <= n + 2

    def test_theorem_cooling_reaches_t_min_past_underflow(self):
        # delta^n underflows after about 708,000 levels, long before T reaches t_min
        cfg = AnnealConfig(t_max=1e300, t_min=1e-300, delta=0.999)
        levels = np.array(cfg.temperature_levels())
        assert len(levels) <= cfg._max_levels() <= len(levels) + 2
        assert len(levels) > 1_380_000
        assert np.all(np.diff(levels) < 0)
        assert levels[-1] > 1e-300 and levels[-1] * 0.999 < 1e-300 * (1 + 1e-9)

    @pytest.mark.parametrize(
        "cfg",
        [
            AnnealConfig(),  # C5-C10, perfbench and the scripts
            AnnealConfig(cooling="algorithm1"),
            AnnealConfig(t_max=0.5, t_min=0.25, delta=0.5),  # C4's fixed temperature
            AnnealConfig(t_min=0.2),  # C11 estimate-range
            AnnealConfig(t_min=0.5),  # C11 compare
            AnnealConfig(t_min=0.05),
            AnnealConfig(t_min=1.0),
            AnnealConfig(delta=0.7),
            AnnealConfig(t_max=1e300, t_min=5e299, delta=0.5),
        ],
    )
    def test_schedules_keep_their_direct_floats(self, cfg):
        levels, t = [], cfg.t_max  # T_n = t_max * delta^n, or T_{n-1} * delta^n, in floats
        while t > cfg.t_min:
            levels.append(t)
            t = (cfg.t_max if cfg.cooling == "theorem" else t) * cfg.delta ** len(levels)
        assert cfg.temperature_levels() == levels

    def test_numpy_integers_pass_as_ints(self):
        cfg = AnnealConfig(inner_iters=np.int64(7), seed=np.uint8(3))
        assert (cfg.inner_iters, cfg.seed) == (7, 3)
        assert type(cfg.inner_iters) is int and type(cfg.seed) is int
        res = estimate_range(SPHERE, BoxDomain.cube(-1, 1, 2), replace(cfg, t_min=5.0),
                             n_seeds=np.int32(2))
        assert res.seeds_used == [3, 4]

    def test_default_variance_from_domain(self):
        cfg = AnnealConfig()
        dom = BoxDomain(((-4, 4), (0, 2)))
        assert cfg.resolve_variance(dom) == pytest.approx((0.1 * 2) ** 2)


_CALLS = {  # the entry points that check their own integer and number fields
    "AnnealConfig": AnnealConfig,
    "estimate_range": lambda **kw: estimate_range(SPHERE, BoxDomain.cube(-1, 1, 2),
                                                  AnnealConfig(t_min=5.0), **kw),
    "compare_modes": lambda **kw: compare_modes(SPHERE, BoxDomain.cube(-1, 1, 2),
                                                AnnealConfig(t_min=5.0), **kw),
}


@pytest.mark.parametrize(
    "call, field, value",
    [
        ("AnnealConfig", "inner_iters", 1.5),
        ("AnnealConfig", "inner_iters", True),
        ("AnnealConfig", "inner_iters", "100"),
        ("AnnealConfig", "seed", -1),
        ("AnnealConfig", "seed", 2.0),
        ("AnnealConfig", "seed", True),
        ("AnnealConfig", "t_max", True),
        ("AnnealConfig", "t_min", True),
        ("AnnealConfig", "delta", np.True_),
        ("estimate_range", "n_seeds", 2.5),
        ("estimate_range", "n_seeds", True),
        ("estimate_range", "n_seeds", 0),
        ("compare_modes", "n_seeds", 2.0),
        ("compare_modes", "n_seeds", np.False_),
    ],
)
def test_bad_field_value_raises_value_error_naming_it(call, field, value):
    with pytest.raises(ValueError, match=field):
        _CALLS[call](**{field: value})


def _increments(variance, n_steps, seeds=(0,)):
    """Gaussian proposal increments of classical chains at T = 1e300, where every
    move is accepted, so consecutive trace points differ by exactly one increment."""
    cfg = AnnealConfig(t_max=1e300, t_min=5e299, delta=0.5, inner_iters=n_steps,
                       proposal_variance=variance, mode="classical")
    runs = traced(SPHERE, BoxDomain.cube(-1, 1, 2), [replace(cfg, seed=s) for s in seeds])
    assert all(trace.accepted.all() for _, trace in runs)
    return np.concatenate([np.diff(trace.points, axis=0) for _, trace in runs])


class TestPropose:
    """The kernel's proposal increments."""

    def test_concentrates_as_variance_vanishes(self):
        dists = np.linalg.norm(_increments(1e-10, 101), axis=1)
        assert max(dists) < 1e-4

    def test_empirical_variance_matches(self):
        draws = _increments(0.25, 5001, seeds=range(20))
        assert len(draws) == 10**5
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 0.25) / 0.25 < 0.05)

    def test_seed_determinism(self):
        a, b = _increments(1.0, 6, seeds=(7,)), _increments(1.0, 6, seeds=(7,))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _increments(1.0, 6, seeds=(8,)))

    def test_bad_variance(self):
        for variance in (0.0, -1.0):
            with pytest.raises(ValueError):
                fixed_temperature_chain(SPHERE, BoxDomain.cube(-1, 1, 2), 1.0, variance, 10)


class TestAcceptanceProbability:
    def test_downhill_always_accepted(self):
        assert acceptance_probability(-3.2, 0.5) == 1.0
        assert acceptance_probability(-3.2, 100.0) == 1.0

    def test_zero_delta(self):
        assert acceptance_probability(0.0, 1.0) == 1.0

    def test_unit_ratio(self):
        assert acceptance_probability(2.0, 2.0) == pytest.approx(np.exp(-1), rel=1e-12)

    def test_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            df = rng.normal() * 10
            t = rng.uniform(1e-6, 100)
            expect = np.exp(min(0.0, -df) / t)
            assert acceptance_probability(df, t) == pytest.approx(expect, rel=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            acceptance_probability(1.0, 0.0)

    def test_array_form_matches_scalar_rule(self):
        rng = np.random.default_rng(3)
        df = np.concatenate([rng.normal(size=500) * 10, [0.0, -0.0, np.inf, -np.inf, np.nan]])
        t = rng.uniform(1e-6, 100, size=len(df))
        got = acceptance_probability(df, t)
        assert isinstance(got, np.ndarray) and got.shape == df.shape
        expect = [acceptance_probability(float(a), float(b)) for a, b in zip(df, t)]
        assert np.array_equal(got, expect, equal_nan=True)
        assert np.isnan(got[-1])  # NaN rejects: no uniform draw is <= NaN
        assert np.array_equal(acceptance_probability(df, 0.5),
                              [acceptance_probability(float(a), 0.5) for a in df], equal_nan=True)
        with pytest.raises(ValueError):
            acceptance_probability(df[:2], np.array([1.0, 0.0]))


def _recorded_sphere():
    """The sphere plus the list of every value it returned, one per row, in call order."""
    seen = []

    def fn(X):
        v = np.sum(np.asarray(X) ** 2, axis=-1)
        seen.extend(v.tolist())
        return v

    return Objective(fn, 2, name="sphere"), seen


def _cold_config(temperature, variance, seed):
    # a single temperature level of 200 steps
    return AnnealConfig(
        t_max=2 * temperature, t_min=temperature, delta=0.5,
        inner_iters=200, proposal_variance=variance, seed=seed,
    )


class TestStep:
    """Per-step properties of the chain, read off its per-step record."""

    dom = BoxDomain(((-1, 1), (-1, 1)))

    def _steps(self, cfg):
        # the record, value held before each step, value proposed, accepted flag
        f, seen = _recorded_sphere()
        _, trace = run(f, self.dom, cfg)
        held = np.concatenate([[seen[0]], trace.values[:-1]])
        return trace, held, np.array(seen[1:]), trace.accepted

    def test_downhill_always_accepted(self):
        # at near-zero temperature only the q = 1 branch can move the chain,
        # so every move must be strictly downhill, and moves do happen
        trace, held, proposed, accepted = self._steps(_cold_config(1e-300, 0.01, seed=3))
        assert np.all(accepted[proposed < held])
        assert np.all(trace.values[accepted] < held[accepted])
        assert accepted.sum() >= 5

    def test_cold_chain_rejects_uphill(self):
        trace, held, proposed, accepted = self._steps(_cold_config(1e-12, 0.04, seed=4))
        uphill = proposed > held
        assert not np.any(accepted[uphill])
        assert np.all(trace.values[~accepted] == held[~accepted])
        assert uphill.sum() >= 150  # the chain settles and then mostly proposes uphill

    def test_reflected_stays_inside(self):
        _, trace = run(SPHERE, self.dom, AnnealConfig(seed=5, proposal_variance=1.0, t_min=1.0))
        assert np.all(self.dom.contains(trace.points))
        pts = fixed_temperature_chain(SPHERE, self.dom, 1.0, 1.0, 500, seed=5)
        assert np.all(self.dom.contains(pts))

    def test_best_value_never_increases(self):
        f, seen = _recorded_sphere()
        res, trace = run(f, self.dom, AnnealConfig(seed=6))
        best = trace.best_values
        assert np.all(np.diff(best) <= 0)
        assert np.array_equal(best, np.minimum.accumulate(np.minimum(trace.values, seen[0])))
        assert res.best_value == best[-1] == SPHERE(res.best)


class TestRun:
    dom = BoxDomain(((-1, 1), (-1, 1)))

    def test_constant_objective(self):
        const = Objective(lambda x: np.full(np.asarray(x).shape[:-1], 4.2), 2, name="c")
        res, trace = run(const, self.dom, AnnealConfig(seed=0))
        assert res.best_value == 4.2
        assert np.all(trace.accepted)  # dF = 0 means q = 1
        # every state ties: the start held the value first, and step 1 among the steps
        assert np.array_equal(res.best, self.dom.sample_uniform(np.random.default_rng(0)))
        assert res.iters_to_best == 1

    def test_start_can_stay_best(self):
        # the objective's minimum is the start point, so no step reaches the start's value
        start = self.dom.sample_uniform(np.random.default_rng(7))
        f = Objective(lambda X: np.sum((X - start) ** 2, axis=-1), 2)
        res, trace = run(f, self.dom, AnnealConfig(seed=7, t_min=1.0))
        assert res.best_value == 0.0 and np.array_equal(res.best, start)
        assert trace.values.min() > 0 and np.all(res.levels.best_value == 0.0)
        assert res.iters_to_best == 1 + np.argmin(trace.values)

    def test_eval_count_accounting(self):
        cfg = AnnealConfig(seed=1)
        res, trace = run(SPHERE, self.dom, cfg)
        levels = len(cfg.temperature_levels())
        assert res.eval_count == 1 + cfg.inner_iters * levels
        assert len(trace) == cfg.inner_iters * levels

    def test_sphere_minimization(self):
        runs = run_many(SPHERE, self.dom, [AnnealConfig(seed=s) for s in range(20)])
        wins = sum(res.best_value <= 1e-2 for res in runs)
        assert wins >= 19

    def test_trace_invariants(self):
        res, t = run(SPHERE, self.dom, AnnealConfig(seed=2))
        assert np.all(np.diff(t.iterations) == 1)
        assert np.all(np.diff(t.best_values) <= 0)
        assert np.all(np.diff(np.unique(t.temperatures)[::-1]) < 0)
        assert np.all(self.dom.contains(t.points))
        assert res.best_value == t.best_values[-1]

    def test_bit_identical_reruns(self):
        (a, ta), (b, tb) = (run(SPHERE, self.dom, AnnealConfig(seed=3)) for _ in range(2))
        assert np.array_equal(ta.points, tb.points)
        assert np.array_equal(ta.values, tb.values)
        assert np.array_equal(ta.accepted, tb.accepted)
        assert a.best_value == b.best_value

    def test_reflected_never_evaluates_outside(self):
        seen = []

        def watched(x):
            x = np.asarray(x)
            seen.extend(x.copy())
            return np.sum(x**2, axis=-1)

        f = Objective(watched, 2, name="watched")
        run(f, self.dom, AnnealConfig(seed=4, proposal_variance=4.0))
        pts = np.array(seen)
        assert np.all(self.dom.contains(pts))

    def test_classical_mode_escapes_domain(self):
        f = builtin("ackley")
        dom = BoxDomain.cube(-4, 4, 2)
        _, trace = run(f, dom, AnnealConfig(seed=5, mode="classical", proposal_variance=4.0))
        assert not np.all(dom.contains(trace.points))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run(PARABOLA_1D, self.dom, AnnealConfig())
        # named, and refused before any evaluation
        calls = []
        ackley = builtin("ackley")
        f = Objective(lambda X: calls.append(X) or ackley.evaluate_many(X), 2)
        with pytest.raises(ValueError, match="objective has dimension 2, the domain 3"):
            run_many(f, BoxDomain.cube(-4, 4, 3), [AnnealConfig()])
        assert calls == []


def _trace_header(trace):
    xs = [f"x{j+1}" for j in range(trace.points.shape[1])]
    return ["iter", "temperature", *xs, "value", "accepted", "best_value"]


def _rowwise_csv(trace):
    # row-by-row formatting of the trace's columns, the reference for the column-wise writer
    lines = [",".join(_trace_header(trace))]
    for i in range(len(trace)):
        lines.append(",".join(
            [str(int(trace.iterations[i])), repr(float(trace.temperatures[i]))]
            + [repr(float(v)) for v in trace.points[i]]
            + [repr(float(trace.values[i])), str(bool(trace.accepted[i])),
               repr(float(trace.best_values[i]))]
        ))
    return "\n".join(lines) + "\n"


def _write_trace_csv(trace, path):
    _write_csv(path, _trace_header(trace), [trace.iterations, trace.temperatures,
                                            *trace.points.T, trace.values, trace.accepted,
                                            trace.best_values])


def test_trace_csv_matches_rowwise_formatting(tmp_path):
    rng = np.random.default_rng(9)
    n = 2500
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1.5e300]
    values = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    values[998:998 + len(special)] = special
    points = rng.normal(size=(n, 3))
    points[1000, :] = [np.nan, -0.0, np.inf]
    trace = Trace(np.arange(1, n + 1), np.repeat([10.0, 0.5, 1e-3], [1000, 1000, 500]), points,
                  values, rng.uniform(size=n) < 0.5, np.minimum.accumulate(values),
                  rng.uniform(size=n) < 0.5)
    _write_trace_csv(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text() == _rowwise_csv(trace)
    empty = Trace(np.arange(1, 1), np.empty(0), np.empty((0, 2)), np.empty(0),
                  np.empty(0, dtype=bool), np.empty(0), np.empty(0, dtype=bool))
    _write_trace_csv(empty, tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_text() == _rowwise_csv(empty)


def _assert_same_run(traced_a, traced_b):
    (a, ta), (b, tb) = traced_a, traced_b
    for name in ("iterations", "temperatures", "points", "values", "accepted", "best_values",
                 "left_box"):
        assert np.array_equal(getattr(ta, name), getattr(tb, name)), name
    _assert_same_result(a, b)


def _assert_same_result(a, b):
    assert np.array_equal(a.best, b.best)
    assert a.best_value == b.best_value and a.eval_count == b.eval_count
    assert (a.iters_to_best, a.max_excursion) == (b.iters_to_best, b.max_excursion)
    for name in LEVEL_COLUMNS:
        assert np.array_equal(getattr(a.levels, name), getattr(b.levels, name)), name


class TestBatch:
    """Chains advanced in lockstep equal the same chains run one at a time."""

    dom = BoxDomain.cube(-4, 4, 2)
    cfg = AnnealConfig(t_min=0.5, proposal_variance=4.0)

    def test_mixed_modes_equal_single_runs(self):
        f = builtin("ackley")
        cfgs = [replace(self.cfg, seed=s, mode=m) for s in (4, 5, 6) for m in MODES]
        runs = traced(f, self.dom, cfgs)
        assert [r.config for r, _ in runs] == cfgs
        for r, trace in runs:
            _assert_same_run((r, trace), run(f, self.dom, r.config))
            # the per-run scalars are those of the per-step record
            assert r.iters_to_best == trace.iterations[np.argmin(trace.values)]
            over = np.maximum(trace.points - self.dom.upper, self.dom.lower - trace.points)
            assert r.max_excursion == max(over.max(), 0.0)
        assert runs[1][0].max_excursion > 0  # classical rows do leave the box

    def test_lone_classical_chain_equals_its_row_in_a_mixed_batch(self):
        # alone, a classical chain's state can be a view of the proposal buffer across a level
        # boundary: cold levels of 10 steps often end before the next accepted move
        cfg = AnnealConfig(t_max=1.0, t_min=1e-3, delta=0.7, inner_iters=10, mode="classical")
        for seed in range(5):
            alone = replace(cfg, seed=seed)
            mixed = [alone, replace(alone, mode="reflected")]
            _assert_same_run(traced(SPHERE, self.dom, [alone])[0],
                             traced(SPHERE, self.dom, mixed)[0])

    def test_compare_chains_equal_single_runs(self):
        f = builtin("ackley")
        runs = compare_modes(f, self.dom, replace(self.cfg, seed=4), n_seeds=2)
        assert [(r.config.seed, r.config.mode) for r in runs] == \
            [(seed, mode) for seed in (4, 5) for mode in MODES]
        # the records of compare_modes' batch, which is one lockstep batch of these configs
        for r, (same, trace) in zip(runs, traced(f, self.dom, [r.config for r in runs])):
            _assert_same_result(r, same)
            single_result, single = run(f, self.dom, r.config)
            _assert_same_result(r, single_result)
            for field in fields(Trace):
                a, b = getattr(trace, field.name), getattr(single, field.name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field

    def test_schedules_must_match(self):
        with pytest.raises(ValueError, match="seed and mode"):
            run_many(SPHERE, self.dom, [self.cfg, replace(self.cfg, delta=0.9)])

    def test_over_budget_refused_before_any_evaluation(self):
        calls = []
        f = Objective(lambda X: calls.append(X) or np.zeros(len(X)), 2)
        one_level = replace(self.cfg, t_max=2.0, t_min=1.0, delta=0.5, inner_iters=10**5)
        for cfgs in ([replace(self.cfg, delta=1 - 1e-12)],  # about 10^13 levels
                     [replace(one_level, seed=s) for s in range(100)]):  # 100 x 2 x 10^5 bound
            with pytest.raises(ValueError, match="exceed the budget"):
                run_many(f, self.dom, cfgs)
        assert calls == []

    def test_memory_holds_one_level_of_steps(self):
        # 20 chains x 14 levels x 2,000 steps: arrays of every step took about 25 MB,
        # one level's buffers and draws take about 5 MB
        cfg = replace(self.cfg, t_max=2.0, t_min=1.0, inner_iters=2000)
        assert len(cfg.temperature_levels()) == 14
        tracemalloc.start()
        try:
            runs = run_many(builtin("ackley"), self.dom, [replace(cfg, seed=s) for s in range(20)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert all(r.eval_count == 1 + 14 * 2000 for r in runs)

    def test_level_rows_hold_no_per_run_copy_of_constants(self):
        # 2 chains at 460 and 2,302 levels of one step: with a 9-character kind per row
        # and a level column per run, a level row took 104 bytes; with those shared, 72
        cfg = AnnealConfig(t_max=10.0, t_min=1.0, inner_iters=1)

        def peak(delta):
            cfgs = [replace(cfg, delta=delta, seed=s) for s in (0, 1)]
            tracemalloc.start()
            try:
                runs = run_many(builtin("ackley"), self.dom, cfgs)
                return tracemalloc.get_traced_memory()[1], runs
            finally:
                tracemalloc.stop()

        peak(0.9)  # the first run's one-off allocations
        (small, _), (large, runs) = peak(0.995), peak(0.999)
        assert [len(r.levels.level) for r in runs] == [2_302] * 2
        assert (large - small) / (2 * (2_302 - 460)) < 80
        a, b = runs[0].levels, runs[1].levels
        assert list(a.kind) == ["reflected"] * 2_302 and np.array_equal(a.level, b.level)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_memory_of_many_levels_grows_by_level_rows(self, tmp_path):
        # 46,051 levels of one step for 2 chains: a tuple of 8 arrays kept per level
        # peaked at about 119 MB; one row of a few floats per chain per level, about 52 MB.
        # A fresh interpreter, whose VmHWM is its own peak.
        script = textwrap.dedent("""
            import re, sys
            from rangesa.cli import main
            rc = main(["estimate-range", "--fn", "ackley", "--n-seeds", "1", "--inner-iters",
                       "1", "--t-min", "1", "--delta", "0.99995", "--out", sys.argv[1]])
            with open("/proc/self/status") as status:
                print(rc, int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1]) / 1024)
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rc, peak_mb = proc.stdout.split()
        assert rc == "0" and float(peak_mb) < 80, proc.stdout
        assert len((tmp_path / "levels.csv").read_text().splitlines()) == 1 + 2 * 46_051

    def test_nan_start_redrawn_from_own_generator(self):
        calls = []

        def nan_left(X):
            calls.append(X.copy())
            return np.where(X[:, 0] < 0, np.nan, np.sum(X**2, axis=1))

        cfgs = [replace(self.cfg, seed=s) for s in range(8)]
        runs = traced(Objective(nan_left, 2), self.dom, cfgs)
        draws = []  # each chain's starts, replayed from its seed: drawn until one is finite
        for cfg, (r, trace) in zip(cfgs, runs):
            rng = np.random.default_rng(cfg.seed)
            draws.append([self.dom.sample_uniform(rng)])
            while draws[-1][-1][0] < 0:
                draws[-1].append(self.dom.sample_uniform(rng))
            assert r.eval_count == len(draws[-1]) + len(trace)
            assert np.isfinite(r.best_value)
        assert max(map(len, draws)) > 1 and min(map(len, draws)) == 1
        # call k evaluates draw k of every chain whose earlier draws were all NaN
        for k in range(max(map(len, draws))):
            assert np.array_equal(calls[k], [d[k] for d in draws if len(d) > k])
        # then the steps evaluate every chain at once
        assert all(len(X) == len(cfgs) for X in calls[max(map(len, draws)):])

    def test_point_only_callable_rejected(self):
        # a callable that reduces the whole batch to one value must not reach the chains
        f = Objective(lambda x: float(np.sum(np.asarray(x) ** 2)), 2)
        with pytest.raises(ValueError, match="shape"):
            run(f, self.dom, self.cfg)


class TestGibbsDensity:
    dom = BoxDomain(((-1.0, 1.0),))

    def test_constant_is_uniform(self):
        const = Objective(lambda x: np.full(np.asarray(x).shape[:-1], 1.0), 1)
        xs, dens = gibbs_density(const, self.dom, temperature=0.7)
        assert np.allclose(dens, 0.5, atol=1e-12)

    def test_high_temperature_limit_uniform(self):
        xs, dens = gibbs_density(PARABOLA_1D, self.dom, temperature=1e6)
        assert np.max(np.abs(dens - 0.5)) < 1e-3

    def test_matches_independent_quadrature(self):
        # frozen scipy.integrate.quad of exp(-x^2/0.5) over [-1, 1]: Z = 1.196288013322608
        xs, dens = gibbs_density(PARABOLA_1D, self.dom, temperature=0.5, grid_n=2001)
        for x, expect in [(0.0, 0.8359191004702693), (0.5, 0.5070105634746236), (1.0, 0.11312934822503841)]:
            i = int(np.argmin(np.abs(xs - x)))
            assert dens[i] == pytest.approx(expect, rel=1e-4)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            gibbs_density(SPHERE, BoxDomain.cube(-1, 1, 2), 0.5)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            gibbs_density(PARABOLA_1D, self.dom, 0.5, grid_n=10)


def test_fixed_temperature_chain_stays_inside():
    pts = fixed_temperature_chain(PARABOLA_1D, BoxDomain(((-1, 1),)), 0.5, 0.04, 2000, seed=0)
    assert np.all(np.abs(pts) <= 1.0)
