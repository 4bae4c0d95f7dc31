import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rangesa import BoxDomain, Objective, TrainConfig, builtin, evaluate_fit, sample_dataset, train
from rangesa.resnet import Layer, ResNet, build_resnet
from rangesa.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    TrainingDiverged,
    flatten_gradients,
    gradient,
    loss_and_gradients,
)

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
    cache = []
    net.forward(np.asarray(x)[None, :], cache)
    z = [h_in @ lyr.weights.T + lyr.bias for lyr, (h_in, _) in zip(net.layers, cache)]
    for lyr, (_, d), z_k in zip(net.layers, cache, z):
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
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

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
        net.layers[0].weights[...] = 1e200
        with pytest.raises((TrainingDiverged, FloatingPointError)):
            train(net, data, TrainConfig(epochs=5, learning_rate=1e10, seed=0))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    def test_flat_adam_equals_per_layer_adam(self, activation):
        # the update as it was written per layer and per array, on the allocating
        # loss_and_gradients; train's workspace (its derivative buffers, the skip
        # layer's chain buffers, the flat gradient and in-place Adam) must give the
        # same bits, through a short last batch (50 = 3 x 16 + 2)
        f = builtin("ackley")
        data = sample_dataset(f, BoxDomain(((-4, 4), (-4, 4))), m=50, noise_sd=0.1, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=4)
        net = build_resnet([2, 6, 6, 1], activation=activation, seed=4)
        trained, history = train(net, data, cfg)

        ref = net.copy()
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
                loss, grads = loss_and_gradients(ref, data.inputs[idx], data.targets[idx])
                epoch_loss += loss * len(idx)
                t += 1
                lr_t = cfg.learning_rate * np.sqrt(1.0 - b2**t) / (1.0 - b1**t)
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

        assert get_params(trained).tobytes() == get_params(ref).tobytes()
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
            from rangesa.resnet import architecture_dropwave
            data = sample_dataset(builtin("dropwave"), BoxDomain.cube(-5.12, 5.12, 2),
                                  m=1024, noise_sd=0.02, seed=0)
            net = architecture_dropwave(seed=0, width_scale=0.25)
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
