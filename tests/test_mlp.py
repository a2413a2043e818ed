import numpy as np
import pytest

from cnma.mlp import (
    Dataset,
    MlpSurrogate,
    TrainingDivergedError,
    fit,
    forward,
    init_network,
    loss_gradient,
    training_loss,
)


def relu_identity_net():
    """Hand-set 1-1-1 net computing max(0, x) with identity normalization."""
    return MlpSurrogate(
        (1, 1, 1),
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([0.0]), np.array([0.0])],
        np.zeros(1), np.ones(1), np.zeros(1), np.ones(1),
    )


class TestInit:
    def test_shapes_two_hidden(self):
        net = init_network((4, 20, 20, 1), seed=0)
        assert [w.shape for w in net.weights] == [(20, 4), (20, 20), (1, 20)]
        assert [b.shape for b in net.biases] == [(20,), (20,), (1,)]

    def test_shapes_single_hidden(self):
        net = init_network((12, 35, 10), seed=3)
        assert [w.shape for w in net.weights] == [(35, 12), (10, 35)]

    def test_seed_determinism(self):
        a = init_network((5, 7, 2), seed=42)
        b = init_network((5, 7, 2), seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_network((4,), seed=0)
        with pytest.raises(ValueError):
            init_network((4, 0, 1), seed=0)

    def test_identity_normalization_on_init(self):
        net = init_network((3, 4, 2), seed=1)
        assert np.array_equal(net.input_scale, np.ones(3))
        assert np.array_equal(net.output_shift, np.zeros(2))


class TestForward:
    def test_relu_positive(self):
        assert forward(relu_identity_net(), np.array([2.0])) == pytest.approx([2.0])

    def test_relu_negative(self):
        assert forward(relu_identity_net(), np.array([-1.0])) == pytest.approx([0.0])

    def test_batch_matches_single(self):
        net = init_network((3, 6, 2), seed=9)
        xs = np.random.default_rng(1).uniform(-2, 2, size=(5, 3))
        batched = forward(net, xs)
        for i in range(5):
            assert forward(net, xs[i]) == pytest.approx(batched[i])

    def test_pure_function(self):
        net = init_network((2, 4, 1), seed=5)
        x = np.array([0.3, -0.7])
        first = forward(net, x)
        snapshot = [w.copy() for w in net.weights]
        second = forward(net, x)
        assert np.array_equal(first, second)
        for w, s in zip(net.weights, snapshot):
            assert np.array_equal(w, s)


class TestFit:
    def test_linear_function_is_learned(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(50, 1))
        data = Dataset(x, 2.0 * x)
        net, _ = fit(init_network((1, 10, 1), seed=0), data, epochs=2000)
        pred = forward(net, data.x)
        assert float(np.mean((pred - data.y) ** 2)) <= 1e-3

    def test_constant_dataset_at_awkward_scale(self):
        # identical samples leave std = 0; the scale floor and shift must
        # carry the whole prediction regardless of magnitude
        x = np.full((8, 2), 1234.5)
        y = np.full((8, 1), -9876.25)
        net, _ = fit(init_network((2, 6, 1), seed=4), Dataset(x, y), epochs=500)
        assert forward(net, x[0]) == pytest.approx(y[0], abs=1e-3)

    def test_abs_function_two_relus(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(200, 1))
        data = Dataset(x, np.abs(x))
        net, _ = fit(init_network((1, 10, 1), seed=2), data, epochs=3000)
        pred = forward(net, data.x)
        assert float(np.mean((pred - data.y) ** 2)) <= 1e-2

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(300, 2))
        data = Dataset(x, np.sin(x[:, :1] * 3) + x[:, 1:])
        kw = dict(epochs=50, batch_size=64, seed=11)
        a, loss_a = fit(init_network((2, 8, 1), seed=7), data, **kw)
        b, loss_b = fit(init_network((2, 8, 1), seed=7), data, **kw)
        assert loss_a == loss_b
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_argument_not_mutated(self):
        base = init_network((1, 4, 1), seed=0)
        before = [w.copy() for w in base.weights]
        data = Dataset(np.array([[0.5], [1.0]]), np.array([[1.0], [2.0]]))
        fit(base, data, epochs=10)
        for w, s in zip(base.weights, before):
            assert np.array_equal(w, s)

    def test_shape_mismatch_rejected(self):
        data = Dataset(np.ones((4, 3)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="does not match"):
            fit(init_network((2, 4, 1), seed=0), data, epochs=1)

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))
        with pytest.raises(TrainingDivergedError, match="epochs"):
            fit(init_network((1, 4, 1), seed=0), data, epochs=5,
                step_size=float("nan"))


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones((2, 1)))

    def test_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)), np.empty((0, 1)))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([[1.0]]))


def finite_difference(net, x, y, h=1e-5):
    """Central differences of training_loss for every weight/bias entry."""
    fd_w, fd_b = [], []
    for arrays, store in ((net.weights, fd_w), (net.biases, fd_b)):
        for arr in arrays:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                saved = arr[idx]
                arr[idx] = saved + h
                up = training_loss(net, x, y)
                arr[idx] = saved - h
                down = training_loss(net, x, y)
                arr[idx] = saved
                g[idx] = (up - down) / (2 * h)
            store.append(g)
    return fd_w, fd_b


def assert_gradient_close(analytic, numeric, rel=1e-4):
    for g, fd in zip(analytic, numeric):
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(g - fd) / denom) <= rel


class TestGradient:
    def test_zero_at_perfect_fit(self):
        # exact-fit net for y = 2x on positive inputs: ReLU path stays linear
        net = MlpSurrogate(
            (1, 1, 1),
            [np.array([[1.0]]), np.array([[2.0]])],
            [np.array([0.0]), np.array([0.0])],
            np.zeros(1), np.ones(1), np.zeros(1), np.ones(1),
        )
        x = np.array([[0.2], [0.5], [1.0]])
        gw, gb = loss_gradient(net, x, 2.0 * x)
        total = sum(float(np.abs(g).sum()) for g in gw + gb)
        assert total <= 1e-12

    def test_single_linear_layer_closed_form(self):
        net = MlpSurrogate(
            (3, 1),
            [np.array([[0.4, -1.2, 0.7]])],
            [np.array([0.3])],
            np.zeros(3), np.ones(3), np.zeros(1), np.ones(1),
        )
        x = np.array([[1.5, -0.5, 2.0]])
        y = np.array([[1.0]])
        residual = float(forward(net, x[0])[0] - y[0, 0])
        gw, gb = loss_gradient(net, x, y)
        assert gw[0] == pytest.approx(2.0 * residual * x, abs=1e-12)
        assert gb[0] == pytest.approx([2.0 * residual], abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        hidden = tuple(rng.integers(2, 6, size=rng.integers(1, 3)))
        sizes = (int(rng.integers(1, 4)), *hidden, int(rng.integers(1, 3)))
        net = init_network(sizes, seed=seed)
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 6)), sizes[0]))
        y = rng.uniform(-2, 2, size=(x.shape[0], sizes[-1]))
        gw, gb = loss_gradient(net, x, y)
        fd_w, fd_b = finite_difference(net.copy(), x, y)
        assert_gradient_close(gw, fd_w)
        assert_gradient_close(gb, fd_b)

