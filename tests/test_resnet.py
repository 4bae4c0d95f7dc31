import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rangesa import Layer, ResNet, WeightFormatError, build_resnet
from rangesa.objectives import ROW_BLOCK
from rangesa.presets import preset

ACKLEY_WIDTHS = [2, 128, 256, 256, 256, 256, 128, 1]
DROPWAVE_WIDTHS = [2, 128, 256, 256, 512, 512, 512, 256, 128, 1]
MULTIMIN_WIDTHS = [3, 128, 256, 256, 512, 512, 512, 256, 128, 1]


def param_count(widths):
    # independent sum over the width chain: (H_{l-1} + 1) * H_l
    return sum((a + 1) * b for a, b in zip(widths, widths[1:]))


def test_single_affine_layer():
    net = ResNet([Layer(np.array([[2.0, 3.0]]), np.array([1.0]), False, False)])
    assert net.forward(np.array([1.0, 1.0])) == 6.0


def test_zero_weights_skip_propagates_identity():
    layers = [
        Layer(np.zeros((3, 3)), np.zeros(3), True, False),
        Layer(np.zeros((3, 3)), np.zeros(3), True, True),
        Layer(np.zeros((3, 3)), np.zeros(3), True, True),
        Layer(np.zeros((1, 3)), np.zeros(1), False, False),
    ]
    net = ResNet(layers)
    x = np.array([0.5, -1.0, 2.0])
    assert net.forward(x) == 0.0
    # the skip layers pass sigma(0) + h = h through unchanged
    h = np.maximum(0.0, np.zeros(3))  # first layer output
    for lyr in layers[1:3]:
        h = np.maximum(lyr.weights @ h + lyr.bias, 0.0) + h
    assert np.array_equal(h, np.zeros(3))


def test_forward_deterministic():
    net = build_resnet([2, 8, 8, 1], seed=5)
    x = np.array([0.3, -0.7])
    assert net.forward(x) == net.forward(x)


def test_forward_batch_matches_single():
    net = build_resnet([2, 16, 16, 1], seed=6)
    X = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
    batch = net.forward(X)
    single = np.array([net.forward(x) for x in X])
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)


def test_forward_dimension_mismatch():
    net = build_resnet([2, 4, 1], seed=0)
    with pytest.raises(ValueError, match="dimension"):
        net.forward(np.zeros(3))


def test_nonfinite_error_names_layer():
    big = Layer(np.full((2, 2), 1e308), np.zeros(2), False, False)
    out = Layer(np.ones((1, 2)), np.zeros(1), False, False)
    net = ResNet([big, out])
    # forward raises on the non-finite value; numpy's own overflow warning comes first
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="layer 1"):
        net.forward(np.array([1e308, 1e308]))


def _layer_buffers(net, n, derivs=True):
    """Per layer, a fresh (n, width) output array and, where the layer has an activation
    and ``derivs`` is set, a bool derivative mask."""
    return [(np.empty((n, lyr.out_width)),
             np.empty((n, lyr.out_width), bool) if derivs and lyr.has_activation else None)
            for lyr in net.layers]


def test_nonfinite_batch_names_middle_layer():
    ident = Layer(np.eye(2), np.zeros(2), False, False)
    big = Layer(np.full((2, 2), 1e308), np.zeros(2), False, False)
    out = Layer(np.ones((1, 2)), np.zeros(1), False, False)
    net = ResNet([ident, big, out])
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="layer 2"):
        net.forward(X)


def test_forward_cache_holds_layer_inputs_and_preactivations():
    net = build_resnet([2, 4, 4, 1], seed=7)
    X = np.random.default_rng(2).uniform(-1, 1, size=(5, 2))
    buffers = _layer_buffers(net, len(X))
    out = net._layers(X, buffers)[:, 0]
    inputs = [X] + [z for z, _ in buffers[:-1]]
    z = [h_in @ lyr.weights.T + lyr.bias for lyr, h_in in zip(net.layers, inputs)]
    for lyr, (_, d), z_k in zip(net.layers, buffers, z):
        if lyr.has_activation:
            assert d.dtype == bool and np.array_equal(d, z_k > 0.0)
        else:
            assert d is None
    assert np.array_equal(out, z[-1][:, 0]) and np.shares_memory(out, buffers[-1][0])
    assert np.array_equal(buffers[1][0], np.maximum(z[1], 0.0) + buffers[0][0])


def _layer_formula(net, X):
    """relu(h @ W.T + b) (+ h) per layer, every step a new array."""
    h = X
    for lyr in net.layers:
        z = h @ lyr.weights.T + lyr.bias
        a = np.maximum(z, 0.0) if lyr.has_activation else z
        h = a + h if lyr.has_skip else a
    return h[..., 0]


def _odd_skips_net():
    # a skip on the first layer (its input is the caller's array) and one without activation
    rng = np.random.default_rng(8)
    return ResNet([
        Layer(rng.normal(size=(2, 2)), rng.normal(size=2), True, True),
        Layer(rng.normal(size=(2, 2)), rng.normal(size=2), False, True),
        Layer(rng.normal(size=(1, 2)), rng.normal(size=1), False, False),
    ])


@pytest.mark.parametrize("shape", [(2,), (1, 2), (7, 2), (5000, 2), (6, 2), (1025, 2),
                                   (64, 2), (65, 2)])
def test_forward_bit_identical_to_layer_formula(shape):
    X = np.random.default_rng(4).uniform(-3, 3, size=shape)
    for net in (build_resnet([2, 16, 16, 32, 32, 1], seed=3), _odd_skips_net()):
        X_before = X.copy()
        out = net.forward(X)
        assert np.array_equal(out, _layer_formula(net, X))
        assert isinstance(out, float) if X.ndim == 1 else out.shape == shape[:1]
        if X.ndim == 2:
            # the objective runs forward's layer loop unchecked, a ROW_BLOCK of rows at a
            # time (BLAS may round a row differently in a batch of another row count), and
            # adds the biases of a batch of up to 64 rows from tiled copies
            blocks = [net._layers(X[s : s + ROW_BLOCK])[:, 0]
                      for s in range(0, len(X), ROW_BLOCK)]
            values = net.as_objective().evaluate_many(X)
            assert values.tobytes() == np.concatenate(blocks).tobytes()
        assert np.array_equal(X, X_before)


def test_forward_cache_is_never_overwritten():
    X = np.random.default_rng(5).uniform(-2, 2, size=(9, 2))
    for net in (build_resnet([2, 8, 8, 1], seed=4), _odd_skips_net()):
        buffers = _layer_buffers(net, len(X))
        out = net._layers(X, buffers)[:, 0]
        # after the pass, every buffer still holds its own layer's output and derivative
        inputs = [X] + [z for z, _ in buffers[:-1]]
        for lyr, (h_out, d), h_in in zip(net.layers, buffers, inputs):
            z = h_in @ lyr.weights.T + lyr.bias
            a = np.maximum(z, 0.0) if lyr.has_activation else z
            assert np.array_equal(h_out, a + h_in if lyr.has_skip else a)
            if lyr.has_activation:
                assert np.array_equal(d, z > 0.0)
            else:
                assert d is None
        assert np.array_equal(out, buffers[-1][0][:, 0])
        assert np.array_equal(out, net.forward(X))


def test_derivative_written_only_where_given_and_input_never_written():
    net = _odd_skips_net()  # layer 1 has an activation, layers 2 and 3 have none
    X = np.random.default_rng(6).uniform(-2, 2, size=(7, 2))
    X_before = X.copy()
    X.setflags(write=False)  # any write into X raises
    buffers = _layer_buffers(net, len(X), derivs=False)
    given, unused = np.full((7, 2), 7.0), np.full((7, 1), 7.0)
    buffers[0], buffers[2] = (buffers[0][0], given), (buffers[2][0], unused)
    out = net._layers(X, buffers)[:, 0]
    assert np.array_equal(given, X @ net.layers[0].weights.T + net.layers[0].bias > 0.0)
    assert np.all(unused == 7.0)  # a layer without activation has no derivative to write
    assert np.array_equal(X, X_before) and np.array_equal(out, _layer_formula(net, X))


def test_nonpositive_width_scale_rejected():
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="width_scale"):
            preset("ackley").architecture(width_scale=scale)


def test_skip_requires_equal_widths():
    with pytest.raises(ValueError, match="skip"):
        Layer(np.zeros((3, 2)), np.zeros(3), True, True)


def test_width_chain_validated():
    with pytest.raises(ValueError, match="chain"):
        ResNet([
            Layer(np.zeros((4, 2)), np.zeros(4), True, False),
            Layer(np.zeros((1, 3)), np.zeros(1), False, False),
        ])


@pytest.mark.parametrize(
    "name,widths",
    [("ackley", ACKLEY_WIDTHS), ("dropwave", DROPWAVE_WIDTHS), ("multimin", MULTIMIN_WIDTHS)],
    ids=lambda v: f"architecture_{v}" if isinstance(v, str) else None,
)
class TestArchitectures:
    def test_widths_and_param_count(self, name, widths):
        net = preset(name).architecture(seed=0)
        assert net.widths() == widths
        assert net.num_params == param_count(widths)

    def test_skips_exactly_on_equal_width_transitions(self, name, widths):
        net = preset(name).architecture(seed=0)
        for i, lyr in enumerate(net.layers):
            expect = 0 < i < len(net.layers) - 1 and widths[i] == widths[i + 1]
            assert lyr.has_skip == expect

    def test_forward_finite_at_origin(self, name, widths):
        net = preset(name).architecture(seed=0)
        assert np.isfinite(net.forward(np.zeros(widths[0])))

    def test_seed_determinism(self, name, widths):
        a, b = preset(name).architecture(seed=42), preset(name).architecture(seed=42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


def test_relu_forward_piecewise_linear():
    net = build_resnet([2, 16, 16, 1], seed=9)
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        v = rng.normal(size=2)
        t = 1e-7
        f0 = net.forward(x - t * v)
        f1 = net.forward(x)
        f2 = net.forward(x + t * v)
        if abs((f0 + f2) / 2 - f1) < 1e-10 * max(1.0, abs(f1)):
            hits += 1
    # allow a few breakpoint hits on the fine scale
    assert hits >= 17


def test_objective_threads_match_serial_forward():
    # four threads call one network objective at once, each alternating its own row
    # counts, so each grows and re-slices its own buffers while the others compute; a
    # short switch interval makes them interleave often
    net = preset("dropwave").architecture(seed=3, width_scale=0.25)
    f = net.as_objective()
    rng = np.random.default_rng(0)
    batches = [rng.uniform(-5.12, 5.12, size=(n, 2)) for n in (1024, 6, 300, 1, 513, 64)]
    expected = [net.forward(X).tobytes() for X in batches]
    owns = ((0, 1), (2, 3), (4, 5), (1, 4))
    barrier, wrong, done = threading.Barrier(len(owns), timeout=60), [], []

    def work(own):
        barrier.wait()
        for _ in range(30):
            for i in own:
                if f.evaluate_many(batches[i]).tobytes() != expected[i]:
                    wrong.append(i)
        done.append(own)

    threads = [threading.Thread(target=work, args=(own,)) for own in owns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(owns) and wrong == []
    # the values returned belong to the caller: a later call does not overwrite them
    first = f.evaluate_many(batches[2])
    f.evaluate_many(batches[2][::-1])
    assert first.tobytes() == expected[2]


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = build_resnet([2, 8, 8, 1], seed=11)
        path = tmp_path / "w.json"
        net.save(path)
        back = ResNet.load(path)
        X = np.random.default_rng(1).uniform(-3, 3, size=(50, 2))
        assert np.array_equal(net.forward(X), back.forward(X))

    def test_save_writes_json_dumps_of_the_document(self, tmp_path):
        # the 64x64 layer fills one slice exactly, the 100x64 one spans two
        net = build_resnet([2, 64, 64, 100, 1], seed=5)
        net.layers[2].weights.ravel()[4090:4100] = [
            -0.0, 1e-300, -1.5e300, 5e-324, np.nan, np.inf, -np.inf, 0.1, 1e16, -2.5]
        net.layers[0].bias[:2] = [np.nan, -np.inf]
        doc = {
            "format_version": 1,
            "activation": "relu",
            "input_dim": net.input_dim,
            "layers": [
                {"in_width": lyr.in_width, "out_width": lyr.out_width,
                 "has_skip": lyr.has_skip, "has_activation": lyr.has_activation,
                 "weights": lyr.weights.ravel().tolist(), "bias": lyr.bias.tolist()}
                for lyr in net.layers
            ],
        }
        path = tmp_path / "w.json"
        net.save(path)
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode()
        back = ResNet.load(path)
        for a, b in zip(net.layers, back.layers):
            assert np.array_equal(a.weights, b.weights, equal_nan=True)
            assert np.array_equal(a.bias, b.bias, equal_nan=True)

    def test_weight_file_io_memory_is_bounded(self, tmp_path):
        # 920,449 parameters, a 19.9 MB file: holding the whole document as
        # Python objects costs about 69 MB to save it and 50 MB to load it
        net = preset("dropwave").architecture(width_scale=1.0)
        path = tmp_path / "w.json"
        tracemalloc.start()
        try:
            net.save(path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = ResNet.load(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert save_peak < 4e6 and load_peak < 44e6
        assert all(np.array_equal(a.weights, b.weights) for a, b in zip(net.layers, back.layers))

    def test_truncated_file(self, tmp_path):
        net = build_resnet([2, 4, 1], seed=0)
        path = tmp_path / "w.json"
        net.save(path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(WeightFormatError, match="malformed"):
            ResNet.load(path)

    def test_mismatched_widths(self, tmp_path):
        net = build_resnet([2, 4, 4, 1], seed=0)
        path = tmp_path / "w.json"
        net.save(path)
        doc = json.loads(path.read_text())
        doc["layers"][1]["in_width"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError):
            ResNet.load(path)

    def test_missing_field(self, tmp_path):
        net = build_resnet([2, 4, 1], seed=0)
        path = tmp_path / "w.json"
        net.save(path)
        doc = json.loads(path.read_text())
        del doc["layers"][0]["bias"]
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError, match="bias"):
            ResNet.load(path)

    @pytest.mark.parametrize("doc", [[1, 2], "text", {"format_version": 1, "layers": [1]}])
    def test_json_of_wrong_shape(self, tmp_path, doc):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightFormatError):
            ResNet.load(path)
