import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from rangesa import BoxDomain, Objective, TrainConfig, builtin, evaluate_fit, sample_dataset, train
from rangesa.presets import preset
from rangesa.resnet import Layer, ResNet, build_resnet
from rangesa.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    TrainingDiverged,
    _short_decimals,
    _TrainWorkspace,
    loss_and_gradients,
)
from support import flatten_gradients, gradient

SRC = Path(__file__).resolve().parents[1] / "src"


def get_params(net):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.bias]) for l in net.layers])


def set_params(net, p):
    k = 0
    for l in net.layers:
        n = l.weights.size
        l.weights[...] = p[k : k + n].reshape(l.weights.shape)
        k += n
        n = l.bias.size
        l.bias[...] = p[k : k + n]
        k += n


def short_decimals(values):
    """Per float32 value, the float64 that Python parses from numpy's shortest repr of it."""
    values = np.asarray(values)
    assert values.dtype == np.float32
    return np.array([float(str(v)) for v in values.ravel()]).reshape(values.shape)


def float32_copy(net):
    """The network with float32 weights, as train's private copy holds them."""
    net = net.copy()
    for l in net.layers:
        l.weights, l.bias = l.weights.astype(np.float32), l.bias.astype(np.float32)
    return net


def finite_difference(net, x, target, h=1e-5):
    p0 = get_params(net)
    fd = np.empty_like(p0)
    for i in range(len(p0)):
        p = p0.copy()
        p[i] += h
        set_params(net, p)
        lp = (net.forward(x) - target) ** 2
        p[i] -= 2 * h
        set_params(net, p)
        lm = (net.forward(x) - target) ** 2
        fd[i] = (lp - lm) / (2 * h)
    set_params(net, p0)
    return fd


def min_preactivation(net, x):
    """Smallest |pre-activation| over every layer at x, from the outputs forward writes."""
    buffers = [(np.empty((1, lyr.out_width)),
                np.empty((1, lyr.out_width), bool) if lyr.has_activation else None)
               for lyr in net.layers]
    net.forward(np.asarray(x)[None, :], buffers)
    inputs = [np.asarray(x)[None, :]] + [z for z, _ in buffers[:-1]]
    z = [h_in @ lyr.weights.T + lyr.bias for lyr, h_in in zip(net.layers, inputs)]
    for lyr, (_, d), z_k in zip(net.layers, buffers, z):
        if lyr.has_activation:
            assert np.array_equal(d, z_k > 0.0)
        else:
            assert d is None
    return min(np.min(np.abs(z_k)) for z_k in z)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            net = build_resnet([2, 4, 4, 1], seed=trial)
            # resample probes sitting on a ReLU breakpoint
            for _ in range(50):
                x = rng.uniform(-1, 1, 2)
                if min_preactivation(net, x) > 1e-6:
                    break
            target = float(rng.normal())
            g = gradient(net, x, target)
            fd = finite_difference(net, x, target)
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(g - fd) / denom) < 1e-4

    def test_zero_residual_gives_zero_gradient(self):
        net = build_resnet([2, 4, 1], seed=1)
        x = np.array([0.3, 0.4])
        g = gradient(net, x, net.forward(x))
        assert np.array_equal(g, np.zeros_like(g))

    def test_dead_relu_unit_has_zero_weight_gradient(self):
        # one hidden unit forced negative pre-activation: its weights get no signal
        net = ResNet([
            Layer(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, -100.0]), True, False),
            Layer(np.array([[1.0, 1.0]]), np.array([0.0]), False, False),
        ])
        _, grads = loss_and_gradients(net, np.array([[0.5, 0.5]]), np.array([3.0]))
        dW0, db0 = grads[0]
        assert np.array_equal(dW0[1], np.zeros(2))
        assert db0[1] == 0.0

    def test_dimension_check(self):
        net = build_resnet([2, 4, 1], seed=0)
        with pytest.raises(ValueError):
            gradient(net, np.zeros(3), 0.0)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    def test_float32_workspace_matches_float64_reference(self, activation):
        # train's float32 pass against the float64 one. Over 20 seeds of this
        # set-up the largest difference was 2.4e-7 of the largest gradient
        # entry (about 2 float32 ulps) and 1.8e-7 of the loss; the bound is 1e-6
        data = sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), m=64, noise_sd=0.1,
                              seed=5)
        net = build_resnet([2, 16, 16, 16, 1], activation=activation, seed=5)
        ws = _TrainWorkspace(float32_copy(net), 80)  # 64 rows use the leading rows
        loss32, _ = loss_and_gradients(float32_copy(net), data.inputs.astype(np.float32),
                                       data.targets.astype(np.float32), ws)
        loss64, grads64 = loss_and_gradients(net, data.inputs, data.targets)
        g64 = flatten_gradients(grads64)
        assert ws.grad.dtype == np.float32 and g64.dtype == np.float64
        assert np.max(np.abs(ws.grad - g64)) < 1e-6 * np.max(np.abs(g64))
        assert abs(loss32 - loss64) < 1e-6 * loss64

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_own_workspace_matches_a_given_one_byte_for_byte(self, activation, dtype):
        data = sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), m=64, noise_sd=0.1,
                              seed=6)
        net = build_resnet([2, 16, 16, 8, 1], activation=activation, seed=6)
        if dtype == np.float32:
            net = float32_copy(net)
        X, y = data.inputs.astype(dtype), data.targets.astype(dtype)
        ws = _TrainWorkspace(net, 80)  # 64 rows use the leading rows
        ws.outputs[0][64:] = np.nan  # rows past the batch must not leak into the result
        loss, grads = loss_and_gradients(net, X, y, ws)
        loss_own, grads_own = loss_and_gradients(net, X, y)
        assert loss == loss_own
        assert flatten_gradients(grads).tobytes() == flatten_gradients(grads_own).tobytes()
        assert flatten_gradients(grads).dtype == dtype

    def test_flatten_ordering_stable(self):
        net = build_resnet([2, 3, 1], seed=2)
        _, grads = loss_and_gradients(net, np.ones((1, 2)), np.array([1.0]))
        flat = flatten_gradients(grads)
        assert flat.shape == (net.num_params,)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001 and cfg.epochs == 1000

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_bad_lr_rejected(self):
        for lr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
                TrainConfig(learning_rate=lr)

    def test_batch_size_resolution(self):
        assert TrainConfig().resolve_batch_size(2000) == 2000
        assert TrainConfig().resolve_batch_size(10000) == 256
        assert TrainConfig(batch_size=64).resolve_batch_size(2000) == 64
        with pytest.raises(ValueError):
            TrainConfig(batch_size=64).resolve_batch_size(10)


class TestTrain:
    domain = BoxDomain(((-1, 1), (-1, 1)))

    def test_learns_constant_target(self):
        const = Objective(lambda x: np.full(x.shape[:-1], 2.5), 2, name="const")
        data = sample_dataset(const, self.domain, m=64, noise_sd=0.0, seed=0)
        net = build_resnet([2, 8, 8, 1], seed=0)
        net, history = train(net, data, TrainConfig(epochs=2000, learning_rate=0.01, seed=0))
        assert history[-1] < 1e-2
        assert np.max(np.abs(net.forward(data.inputs) - 2.5)) < 0.2

    def test_loss_decreases_without_noise(self):
        f = builtin("ackley")
        data = sample_dataset(f, BoxDomain(((-4, 4), (-4, 4))), m=200, noise_sd=0.0, seed=1)
        net = build_resnet([2, 16, 16, 1], seed=1)
        net, history = train(net, data, TrainConfig(epochs=200, seed=1))
        assert history[-1] < history[0]

    def test_deterministic(self):
        f = builtin("ackley")
        data = sample_dataset(f, BoxDomain(((-4, 4), (-4, 4))), m=100, noise_sd=0.1, seed=2)
        runs = []
        for _ in range(2):
            net = build_resnet([2, 8, 1], seed=2)
            net, history = train(net, data, TrainConfig(epochs=20, seed=2))
            runs.append((get_params(net), history))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_dimension_mismatch(self):
        f = builtin("multimin")
        data = sample_dataset(f, BoxDomain.cube(-3, 3, 3), m=10, noise_sd=0.0, seed=0)
        net = build_resnet([2, 4, 1], seed=0)
        with pytest.raises(ValueError, match="dimension"):
            train(net, data, TrainConfig(epochs=1))

    def test_divergence_names_epoch(self):
        f = Objective(lambda x: np.full(x.shape[:-1], 1.0), 2)
        data = sample_dataset(f, self.domain, m=16, noise_sd=0.0, seed=0)
        net = build_resnet([2, 4, 1], seed=0)
        net.layers[0].weights[...] = 1e30
        with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0"):
            train(net, data, TrainConfig(epochs=5, learning_rate=1e10, seed=0))

    @pytest.mark.parametrize("weight", [1e200, np.nan])
    def test_weights_beyond_float32_rejected_before_training(self, weight):
        f = Objective(lambda x: np.full(x.shape[:-1], 1.0), 2)
        data = sample_dataset(f, self.domain, m=16, noise_sd=0.0, seed=0)
        net = build_resnet([2, 4, 1], seed=0)
        net.layers[0].weights[...] = weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "overflow encountered in cast" fails the test
            with pytest.raises(ValueError, match="weights.*float32's range"):
                train(net, data, TrainConfig(epochs=5, seed=0))

    @pytest.mark.parametrize("target", [1e300, np.nan])
    def test_data_beyond_float32_rejected_before_training(self, target):
        f = Objective(lambda x: np.full(x.shape[:-1], target), 2)
        data = sample_dataset(f, self.domain, m=16, noise_sd=0.0, seed=0)
        net = build_resnet([2, 4, 1], seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow and invalid-value warnings
            with pytest.raises(ValueError, match="training data.*float32's range"):
                train(net, data, TrainConfig(epochs=5, seed=0))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    def test_flat_adam_equals_per_layer_adam(self, activation):
        # the update as it was written per layer and per array, on the allocating
        # loss_and_gradients and float32 copies of the network and the data;
        # train's workspace (its derivative buffers, the skip layer's chain
        # buffers, the flat gradient and in-place Adam) must give the same bits,
        # through a short last batch (50 = 3 x 16 + 2)
        f = builtin("ackley")
        data = sample_dataset(f, BoxDomain(((-4, 4), (-4, 4))), m=50, noise_sd=0.1, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=4)
        net = build_resnet([2, 6, 6, 1], activation=activation, seed=4)
        trained, history = train(net, data, cfg)

        ref = float32_copy(net)
        inputs, targets = data.inputs.astype(np.float32), data.targets.astype(np.float32)
        rng = np.random.default_rng(cfg.seed)
        m_state = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in ref.layers]
        v_state = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in ref.layers]
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        t, ref_history = 0, []
        for _ in range(cfg.epochs):
            order = rng.permutation(len(data))
            epoch_loss = 0.0
            for start in range(0, len(data), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grads = loss_and_gradients(ref, inputs[idx], targets[idx])
                epoch_loss += loss * len(idx)
                t += 1
                lr_t = cfg.learning_rate * math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
                for lyr, (mw, mb), (vw, vb), (dW, db) in zip(ref.layers, m_state, v_state, grads):
                    mw *= b1
                    mw += (1 - b1) * dW
                    vw *= b2
                    vw += (1 - b2) * dW**2
                    lyr.weights -= lr_t * mw / (np.sqrt(vw) + eps)
                    mb *= b1
                    mb += (1 - b1) * db
                    vb *= b2
                    vb += (1 - b2) * db**2
                    lyr.bias -= lr_t * mb / (np.sqrt(vb) + eps)
            ref_history.append(epoch_loss / len(data))

        assert get_params(ref).dtype == np.float32
        trained_params = get_params(trained)
        assert trained_params.astype(np.float32).tobytes() == get_params(ref).tobytes()
        assert trained_params.tobytes() == short_decimals(get_params(ref)).tobytes()
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        assert not np.array_equal(get_params(trained), get_params(net))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults")
    def test_training_steps_take_no_page_faults(self):
        # a step writes into buffers allocated once per train call; a step that
        # allocated its arrays afresh took about 90-190 faults on this network.
        # A fresh interpreter, so earlier tests do not shape the allocator's state.
        script = textwrap.dedent("""
            import resource
            from rangesa import BoxDomain, TrainConfig, builtin, sample_dataset, train
            from rangesa.presets import preset
            data = sample_dataset(builtin("dropwave"), BoxDomain.cube(-5.12, 5.12, 2),
                                  m=1024, noise_sd=0.02, seed=0)
            net = preset("dropwave").architecture(seed=0, width_scale=0.25)
            def faults(epochs, batch):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                train(net, data, TrainConfig(epochs=epochs, batch_size=batch, seed=0))
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            for batch in (256, 100):  # 1024 = 10 x 100 + 24: a short last batch
                faults(1, batch)
                steps = 10 * -(-1024 // batch)
                print((faults(11, batch) - faults(1, batch)) / steps)
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        per_step = [float(v) for v in proc.stdout.split()]
        assert len(per_step) == 2 and max(per_step) < 10, per_step

    def test_returns_float64_weights_exact_in_float32(self):
        # each weight is the float64 nearest the shortest decimal of its float32 value
        f = builtin("ackley")
        data = sample_dataset(f, BoxDomain(((-4, 4), (-4, 4))), m=50, noise_sd=0.0, seed=3)
        net = build_resnet([2, 8, 8, 1], seed=3)
        before = get_params(net).tobytes()
        trained, _ = train(net, data, TrainConfig(epochs=5, seed=3))
        for l in trained.layers:
            for a in (l.weights, l.bias):
                assert a.dtype == np.float64
                assert a.tobytes() == short_decimals(a.astype(np.float32)).tobytes()
        assert all(a.dtype == np.float64 for l in net.layers for a in (l.weights, l.bias))
        assert get_params(net).tobytes() == before
        assert not np.array_equal(get_params(trained), get_params(net))

    def test_trained_weights_are_short_and_resave_identically(self, tmp_path):
        data = sample_dataset(builtin("dropwave"), BoxDomain.cube(-5.12, 5.12, 2), m=256,
                              noise_sd=0.02, seed=5)
        net = preset("dropwave").architecture(seed=5, width_scale=0.1)
        trained, _ = train(net, data, TrainConfig(epochs=2, batch_size=64, seed=5))
        values = get_params(trained)
        # narrowed to float32 and mapped back, as training it again would do
        assert _short_decimals(values.astype(np.float32)).tobytes() == values.tobytes()
        digits = [len(repr(abs(v)).split("e")[0].replace(".", "").strip("0"))
                  for v in values.tolist()]
        assert max(digits) <= 9 and np.mean(digits) < 9
        path, again = tmp_path / "w.json", tmp_path / "again.json"
        trained.save(path)
        back = ResNet.load(path)
        assert get_params(back).tobytes() == values.tobytes()
        back.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_short_decimals_match_shortest_repr(self):
        # the vectorized rounding against numpy's shortest float32 repr, on random bit
        # patterns (every exponent), zeros, NaN, the infinities, and powers of 2 and of
        # 10 with their neighbours, where a decimal exponent or the spacing of float32
        # values changes
        bits = np.random.default_rng(0).integers(0, 2**32, 20_000, dtype=np.uint64)
        random = bits.astype(np.uint32).view(np.float32)
        powers = np.concatenate([np.ldexp(1.0, np.arange(-149, 128)),
                                 10.0 ** np.arange(-45, 39)]).astype(np.float32)
        edges = np.concatenate([powers, np.nextafter(powers, np.float32(0)),
                                np.nextafter(powers, np.float32(np.inf)), [0.0, np.inf]])
        values = np.concatenate([random[np.isfinite(random)], edges, -edges, [np.nan]],
                                dtype=np.float32)
        got, want = _short_decimals(values), short_decimals(values)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes()

    def test_original_net_untouched(self):
        f = builtin("ackley")
        data = sample_dataset(f, BoxDomain(((-4, 4), (-4, 4))), m=50, noise_sd=0.0, seed=3)
        net = build_resnet([2, 4, 1], seed=3)
        before = get_params(net)
        train(net, data, TrainConfig(epochs=5, seed=3))
        assert np.array_equal(get_params(net), before)


class TestEvaluateFit:
    def test_exact_model_gives_zero_error(self):
        net = ResNet([Layer(np.array([[1.0, 1.0]]), np.array([0.0]), False, False)])
        f = Objective(lambda x: x[..., 0] + x[..., 1], 2, name="sum")
        report = evaluate_fit(net, f, BoxDomain.cube(-1, 1, 2), n=100, seed=0)
        assert report.mae == pytest.approx(0.0, abs=1e-12)
        assert report.mse == pytest.approx(0.0, abs=1e-12)

    def test_seed_determinism(self):
        net = build_resnet([2, 8, 1], seed=4)
        f = builtin("ackley")
        a = evaluate_fit(net, f, BoxDomain.cube(-5, 5, 2), n=200, seed=9)
        b = evaluate_fit(net, f, BoxDomain.cube(-5, 5, 2), n=200, seed=9)
        assert a.mae == b.mae and a.mse == b.mse

    def test_dimension_check(self):
        net = build_resnet([2, 4, 1], seed=0)
        with pytest.raises(ValueError):
            evaluate_fit(net, builtin("multimin"), BoxDomain.cube(-3, 3, 3), n=10, seed=0)

    def test_zero_points_rejected(self):
        net = build_resnet([2, 4, 1], seed=0)
        with pytest.raises(ValueError, match="n must be"):
            evaluate_fit(net, builtin("ackley"), BoxDomain.cube(-5, 5, 2), n=0, seed=0)
