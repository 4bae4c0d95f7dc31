import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rangesa import (
    BoxDomain,
    Objective,
    ackley,
    builtin,
    drop_wave,
    multi_minima,
    sample_dataset,
)
from rangesa.objectives import ROW_BLOCK, Dataset

SRC = Path(__file__).resolve().parents[1] / "src"

# frozen high-precision reference values (30-digit evaluation of the formulas)
ACKLEY_1_1 = 3.62538493844036282660128982762
DROPWAVE_RING = -0.935857067772289071082650008245  # at (0.5236, 0)


class TestAckley:
    def test_global_minimum_at_origin(self):
        assert abs(ackley(np.zeros(2))) < 1e-12

    def test_reference_point(self):
        assert ackley(np.array([1.0, 1.0])) == pytest.approx(ACKLEY_1_1, rel=1e-14)

    def test_argument_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.uniform(-4, 4, 2)
            assert ackley(np.array([a, b])) == ackley(np.array([b, a]))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            ackley(np.zeros(3))


class TestDropWave:
    def test_global_minimum_at_origin(self):
        assert drop_wave(np.zeros(2)) == -1.0

    def test_range_bounds(self):
        pts = np.random.default_rng(3).uniform(-5.12, 5.12, size=(5000, 2))
        vals = drop_wave(pts)
        assert np.all(vals >= -1.0) and np.all(vals <= 0.0)

    def test_first_ring_value(self):
        assert drop_wave(np.array([0.5236, 0.0])) == pytest.approx(DROPWAVE_RING, rel=1e-14)


class TestMultiMinima:
    def test_listed_minimum(self):
        assert multi_minima(np.array([1.0, -1.0, 1.0])) == 0.0

    def test_origin(self):
        assert multi_minima(np.zeros(3)) == 3.0

    def test_term_arithmetic(self):
        assert multi_minima(np.array([2.0, 0.0, 0.0])) == 11.0

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            multi_minima(np.zeros(2))


@pytest.mark.parametrize(
    "name,argmin,fmin",
    [("ackley", [0, 0], 0.0), ("dropwave", [0, 0], -1.0), ("multimin", [1, 1, 1], 0.0)],
)
def test_random_sampling_never_beats_stated_minimum(name, argmin, fmin):
    f = builtin(name)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, size=(10**6, f.dim))
    vals = f.evaluate_many(pts)
    assert vals.min() >= fmin - 1e-12
    assert f(np.array(argmin, dtype=float)) == pytest.approx(fmin, abs=1e-12)


def test_builtin_unknown():
    with pytest.raises(ValueError, match="builtins are"):
        builtin("foo")


class TestSampleDataset:
    domain = BoxDomain(((-4, 4), (-4, 4)))

    def test_zero_noise_targets_exact(self):
        f = builtin("ackley")
        data = sample_dataset(f, self.domain, m=50, noise_sd=0.0, seed=1)
        assert np.array_equal(data.targets, f.evaluate_many(data.inputs))

    def test_inputs_inside_domain(self):
        data = sample_dataset(builtin("ackley"), self.domain, m=1000, noise_sd=0.1, seed=2)
        assert np.all(self.domain.contains(data.inputs))

    def test_seed_determinism(self):
        a = sample_dataset(builtin("ackley"), self.domain, m=100, noise_sd=0.1, seed=3)
        b = sample_dataset(builtin("ackley"), self.domain, m=100, noise_sd=0.1, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sample_dataset(builtin("ackley"), self.domain, m=0)

    def test_csv_roundtrip(self, tmp_path):
        data = sample_dataset(builtin("ackley"), self.domain, m=20, noise_sd=0.1, seed=4)
        path = tmp_path / "d.csv"
        data.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]  # a dataset is its CSV
        back = Dataset.load(path)
        assert np.array_equal(back.inputs, data.inputs)
        assert np.array_equal(back.targets, data.targets)


def test_objective_dimension_check():
    f = Objective(lambda x: x[..., 0], 2)
    with pytest.raises(ValueError):
        f(np.zeros(3))
    with pytest.raises(ValueError):
        f.evaluate_many(np.zeros((5, 3)))


def test_objective_must_return_one_value_per_row():
    # a callable written for one point would broadcast its value to every row
    f = Objective(lambda x: float(np.sum(np.asarray(x) ** 2)), 2)
    with pytest.raises(ValueError, match=r"expected \(3,\)"):
        f.evaluate_many(np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        Objective(lambda x: x, 2).evaluate_many(np.ones((3, 2)))
    g = Objective(lambda x: np.sum(x**2, axis=-1), 2)
    assert g(np.array([1.0, 2.0])) == 5.0
    assert np.array_equal(g.evaluate_many(np.ones((3, 2))), [2.0, 2.0, 2.0])


def test_non_finite_values_become_nan():
    values = np.array([1.0, np.inf, -np.inf, np.nan])
    f = Objective(lambda x: values, 2)
    assert np.array_equal(f.evaluate_many(np.zeros((4, 2))), [1.0, np.nan, np.nan, np.nan],
                          equal_nan=True)
    assert np.isinf(values[1:3]).all()  # the callable's own array is left as it was
    assert np.isnan(Objective(lambda x: np.full(len(x), -np.inf), 2)(np.zeros(2)))


def test_large_batch_evaluated_a_block_at_a_time():
    rows = []
    f = Objective(lambda X: rows.append(len(X)) or drop_wave(X), 2)
    X = np.random.default_rng(4).uniform(-5, 5, size=(2 * ROW_BLOCK + 5, 2))
    values = f.evaluate_many(X)
    assert rows == [ROW_BLOCK, ROW_BLOCK, 5]
    assert values.tobytes() == drop_wave(X).tobytes()
    with pytest.raises(ValueError, match=r"expected \(5,\)"):  # the short last block
        Objective(lambda X: np.zeros(ROW_BLOCK), 2).evaluate_many(X)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_network_dataset_memory_stays_one_block():
    # 10^5 rows through the reduced drop-wave network in one pass held every layer's
    # 10^5 x 128 outputs and peaked at about 234 MB; a block at a time, about 42 MB.
    # A fresh interpreter, whose VmHWM is its own peak; its ru_maxrss would start from
    # this test process's.
    script = textwrap.dedent("""
        import re
        from rangesa import BoxDomain, sample_dataset
        from rangesa.presets import preset
        f = preset("dropwave").architecture(seed=0, width_scale=0.25).as_objective()
        sample_dataset(f, BoxDomain.cube(-5.12, 5.12, 2), m=10**5, seed=0)
        with open("/proc/self/status") as status:
            print(int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read())[1]) / 1024)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 60, proc.stdout
