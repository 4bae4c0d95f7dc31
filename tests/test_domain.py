import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangesa import BoxDomain


def triangle_fold(y, lo, hi):
    # independent oracle: period-2(u-l) triangle wave
    w = hi - lo
    t = np.mod(y - lo, 2.0 * w)
    return lo + (w - abs(t - w))


class TestConstruction:
    def test_valid(self):
        d = BoxDomain(((0, 1), (-2, 3)))
        assert d.dim == 2
        assert d.bounds == ((0.0, 1.0), (-2.0, 3.0))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="lower < upper"):
            BoxDomain(((0, 0),))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain(((1, 0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain(())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(((0, np.inf),))

    @pytest.mark.parametrize("bounds", [((-1e308, 1e308),), ((0, 1), (0.0, 1.7e308))])
    def test_overflowing_width_rejected(self, bounds):
        # finite bounds whose width, or the reflection's period of twice the width, overflows
        with pytest.raises(ValueError, match="too wide"):
            BoxDomain(bounds)

    @pytest.mark.parametrize("name", ["lower", "upper", "widths", "period"])
    def test_bound_arrays_are_read_only(self, name):
        d = BoxDomain(((0, 1), (-2, 3)))
        with pytest.raises(ValueError, match="read-only"):
            getattr(d, name)[0] = 5.0
        assert d.bounds == ((0.0, 1.0), (-2.0, 3.0))
        assert np.array_equal(d.widths, [1.0, 5.0]) and np.array_equal(d.period, [2.0, 10.0])


class TestContains:
    def test_interior(self):
        assert BoxDomain(((0, 1), (0, 1))).contains([0.5, 0.5])

    def test_boundary_is_feasible(self):
        assert BoxDomain(((0, 1), (0, 1))).contains([0.0, 1.0])

    def test_outside(self):
        assert not BoxDomain(((0, 1), (0, 1))).contains([1.2, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            BoxDomain(((0, 1),)).contains([0.5, 0.5])


class TestReflect:
    unit = BoxDomain(((0.0, 1.0),))

    def test_identity_inside(self):
        assert self.unit.reflect([0.7])[0] == 0.7

    def test_just_above(self):
        assert self.unit.reflect([1.3])[0] == pytest.approx(0.7, abs=1e-15)

    def test_below(self):
        assert self.unit.reflect([-0.4])[0] == pytest.approx(0.4, abs=1e-15)

    def test_beyond_one_period(self):
        # derived from the triangle-wave oracle
        assert self.unit.reflect([2.3])[0] == pytest.approx(
            triangle_fold(2.3, 0.0, 1.0), abs=1e-15
        )

    def test_boundary_seam_maps_to_upper(self):
        # (y - l) mod 2(u - l) exactly equal to u - l takes the first branch
        assert self.unit.reflect([1.0])[0] == 1.0

    def test_inside_returns_a_new_array(self):
        y = np.array([[0.0], [0.7], [1.0]])
        out = self.unit.reflect(y)
        assert not np.shares_memory(out, y) and np.array_equal(out, y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            self.unit.reflect([0.5, 0.5])


bounds_st = st.tuples(
    st.floats(-100, 100, allow_nan=False),
    st.floats(0.01, 100, allow_nan=False),
).map(lambda t: (t[0], t[0] + t[1]))


def clip_fold(d, y):
    # the reference: the fold clamped by numpy's clip
    inside = (y >= d.lower) & (y <= d.upper)
    w = d.widths
    t = np.mod(y - d.lower, 2.0 * w)
    folded = d.lower + np.where(t <= w, t, 2.0 * w - t)
    return np.where(inside, y, np.clip(folded, d.lower, d.upper))


@given(bounds_st, st.integers(-6, 6), st.floats(0, 1))
@example((-1e16, 3.0), 1, 0.5)  # the fold of hi + period rounds to 4.0, and the clamp gives 3.0
@example((-0.0, 1.0), 0, 0.0)  # lo - 5e-324 folds to +0.0, a tie with the bound -0.0
def test_fold_is_reflect_byte_for_byte(b, k, frac):
    # on both faces, inside, a float to either side of each, k periods out
    d = BoxDomain((b,))
    lo, hi = d.bounds[0]
    y = np.array([lo, hi, lo + frac * (hi - lo)]) + k * d.period[0]
    y = np.concatenate([y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf)])[:, None]
    folded = d._fold(y)
    assert folded.tobytes() == d.reflect(y).tobytes() == clip_fold(d, y).tobytes()
    for row in y:  # a point inside comes back as the very array given
        assert (d._fold(row) is row) == d.contains(row)


@given(bounds_st, st.floats(-1e6, 1e6))
def test_reflect_closure(b, y):
    d = BoxDomain((b,))
    assert d.contains(d.reflect([y]))


@given(bounds_st, st.floats(0, 1))
def test_reflect_identity_on_box(b, frac):
    d = BoxDomain((b,))
    y = b[0] + frac * (b[1] - b[0])
    assert d.reflect([y])[0] == y


@given(bounds_st, st.floats(-50, 50), st.integers(-5, 5))
def test_reflect_periodicity(b, y, k):
    d = BoxDomain((b,))
    period = 2.0 * (b[1] - b[0])
    a = d.reflect([y])[0]
    c = d.reflect([y + k * period])[0]
    assert a == pytest.approx(c, abs=1e-9 * max(1.0, abs(y) + abs(k) * period))


@given(bounds_st, st.floats(1e-6, 0.004))
def test_reflect_mirror_symmetry(b, t):
    lo, hi = b
    t = t * (hi - lo)  # keep the overshoot well within one period
    d = BoxDomain((b,))
    assert d.reflect([hi + t])[0] == pytest.approx(hi - t, abs=1e-9 * max(1.0, abs(hi)))
    assert d.reflect([lo - t])[0] == pytest.approx(lo + t, abs=1e-9 * max(1.0, abs(lo)))


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reflect_componentwise(dim, seed):
    # coordinate j of the result depends only on coordinate j of the input
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5, 5, dim)
    d = BoxDomain(tuple((l, l + w) for l, w in zip(lo, rng.uniform(0.5, 5, dim))))
    y1 = rng.uniform(-20, 20, dim)
    y2 = y1.copy()
    y2[0] = rng.uniform(-20, 20)
    r1, r2 = d.reflect(y1), d.reflect(y2)
    assert np.array_equal(r1[1:], r2[1:])
    # and row i of a batch depends only on row i, whether or not other rows leave the box
    batch = np.stack([y1, y2, d.sample_uniform(rng)])
    assert np.array_equal(d.reflect(batch), [d.reflect(row) for row in batch])


def test_sample_uniform_inside():
    d = BoxDomain(((-4, 4), (-4, 4)))
    pts = d.sample_uniform(np.random.default_rng(0), 1000)
    assert pts.shape == (1000, 2)
    assert np.all(d.contains(pts))
