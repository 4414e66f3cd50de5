import numpy as np
import pytest

from salseg.tensor import Tensor, Rng, finite_diff_check
from salseg.layers import concat_channels


def test_square_gradient_at_3():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x
    y.backward(np.array(1.0))
    assert x.grad == pytest.approx(6.0)


def test_identity_backward_is_seed():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x + 0.0
    y.backward(np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_random_composite_matches_finite_differences():
    rng = Rng(7)
    point = Tensor(rng.normal((4, 3)) + 2.5)

    def fn(x):
        return ((x * x + 1.0).square() * x).sum() + x.square().sum() * 0.25

    assert finite_diff_check(fn, point, eps=1e-5) < 1e-4


def test_backward_seed_shape_mismatch():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    with pytest.raises(ValueError):
        y.backward(np.ones(4))


def test_backward_on_leaf_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        x.backward()


def test_backward_consumes_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    y = (x * x).sum()
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()


def test_backward_of_sum_equals_ones_seed():
    rng = Rng(3)
    data = rng.normal((5, 2))
    x1 = Tensor(data.copy(), requires_grad=True)
    (x1 * x1 + x1).sum().backward()
    x2 = Tensor(data.copy(), requires_grad=True)
    (x2 * x2 + x2).backward(np.ones((5, 2)))
    np.testing.assert_allclose(x1.grad, x2.grad)


def test_shared_subexpression_accumulates():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x
    z = y + y  # dz/dx = 2 * 2x = 8
    z.backward(np.array(1.0))
    assert x.grad == pytest.approx(8.0)


def test_broadcast_gradient_unbroadcasts():
    a = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    (a * b).sum().backward()
    assert a.grad.shape == (4, 3)
    assert b.grad.shape == (1, 3)
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    y = x * w
    z = y.square()
    z.sum().backward()
    assert y.grad is None and z.grad is None
    np.testing.assert_array_equal(x.grad, 2 * (x.data * w.data) * w.data)
    np.testing.assert_array_equal(w.grad, 2 * (x.data * w.data) * x.data)
    # a second graph over the same leaves accumulates into their .grad
    (x * w).sum().backward()
    np.testing.assert_array_equal(x.grad, 2 * (x.data * w.data) * w.data + w.data)
    np.testing.assert_array_equal(w.grad, 2 * (x.data * w.data) * x.data + x.data)


def test_concat_backward_splits():
    a = Tensor(np.ones((1, 2, 1, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 3, 1, 2)), requires_grad=True)
    c = concat_channels([a, b])
    c.backward(np.arange(10.0).reshape(1, 5, 1, 2))
    np.testing.assert_array_equal(a.grad[0, :, 0], [[0, 1], [2, 3]])
    np.testing.assert_array_equal(b.grad[0, :, 0], [[4, 5], [6, 7], [8, 9]])


def test_finite_diff_linear_map_near_exact():
    rng = Rng(11)
    w = rng.normal((6,))
    point = Tensor(rng.normal((6,)))
    err = finite_diff_check(lambda x: (x * w).sum(), point, eps=1e-6)
    assert err < 1e-9


class TestRng:
    def test_determinism(self):
        a = Rng(42, stream=3).normal((10,))
        b = Rng(42, stream=3).normal((10,))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, stream=0).normal((10,))
        b = Rng(42, stream=1).normal((10,))
        assert not np.array_equal(a, b)

    def test_integer_determinism_bit_exact(self):
        a = Rng(9).integers(0, 1 << 30, (100,))
        b = Rng(9).integers(0, 1 << 30, (100,))
        np.testing.assert_array_equal(a, b)

    def test_zero_std_is_constant(self):
        np.testing.assert_array_equal(Rng(1).normal((5,), mean=2.0, std=0.0),
                                      np.full(5, 2.0))

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).normal((5,), std=-1.0)

    def test_normal_statistics(self):
        s = Rng(5).normal((100_000,), mean=1.5, std=0.7)
        assert abs(s.mean() - 1.5) < 0.02
        assert abs(s.std() - 0.7) / 0.7 < 0.02

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normal_equals_scaled_shifted_draw_bytewise(self, dtype):
        """The in-place scale, shift and cast give the bytes of
        ``(mean + std * z).astype(dtype)`` on the same draw."""
        z = np.random.Generator(np.random.Philox(
            key=np.array([31, 2], dtype=np.uint64))).standard_normal((7, 5, 3))
        want = (0.25 + 1.7 * z).astype(dtype)
        got = Rng(31, stream=2).normal((7, 5, 3), mean=0.25, std=1.7, dtype=dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 17, 12288])
    def test_sphere_sample_equals_normalised_draw_bytewise(self, dim):
        """The in-place division gives the bytes of ``v / ||v||`` on the
        same draw."""
        v = np.random.Generator(np.random.Philox(
            key=np.array([31, 2], dtype=np.uint64))).standard_normal(dim)
        want = v / np.linalg.norm(v)
        got = Rng(31, stream=2).uniform_sphere(dim)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_sphere_sample_unit_norm(self):
        for d in (1, 2, 17, 1000):
            v = Rng(8).uniform_sphere(d)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_sphere_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            Rng(8).uniform_sphere(0)


SCALAR_OPS = {
    "t * 0.5": lambda t: t * 0.5,
    "0.5 * t": lambda t: 0.5 * t,
    "t + 1": lambda t: t + 1,
}


class TestScalarDtype:
    """A Python scalar takes the tensor's dtype, forward and backward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(SCALAR_OPS))
    def test_scalar_keeps_tensor_dtype(self, op, dtype):
        t = Tensor(np.arange(1.0, 7.0, dtype=dtype).reshape(2, 3),
                   requires_grad=True)
        y = SCALAR_OPS[op](t)
        assert y.dtype == dtype
        y.sum().backward()
        assert t.grad.dtype == dtype

    def test_integer_tensor_times_half_is_float64(self):
        y = Tensor(np.arange(4)) * 0.5
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y.data, [0.0, 0.5, 1.0, 1.5])

    def test_arrays_keep_numpy_promotion(self):
        t = Tensor(np.ones(2, dtype=np.float32))
        assert (t * np.full(2, 0.5)).dtype == np.float64
        assert (t + Tensor(np.zeros(2))).dtype == np.float64
