"""Dense tensors with reverse-mode automatic differentiation.

Every tensor remembers the operation that produced it (define-by-run), so a
single backward pass over the recorded graph yields gradients for all inputs
that asked for them.  Arrays are plain numpy; float32 is the training dtype,
float64 the verification dtype.

The core records ``+`` and ``*`` (both broadcasting), ``square``, ``sum``
and ``reshape``.  The layers, the training losses and the robustness probe
scalar each record one op with a closed-form backward via ``Tensor._make``.

A Python scalar meeting a tensor takes the tensor's dtype (NumPy's weak-scalar
rule), so a float32 graph stays float32 forward and backward, from the loss
down to every parameter gradient, while a float64 graph stays float64.
Arrays and tensors keep NumPy's ordinary promotion.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Finiteness guard: enabled by the test suite, off by default so the hot
# training path does not pay for the checks.
_FINITE_CHECKS = False


def set_finite_checks(enabled: bool) -> None:
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_consumed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._consumed = False
        if _FINITE_CHECKS and not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite values in tensor")

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward_fn):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    # -- backward ------------------------------------------------------------

    def backward(self, seed=None) -> None:
        """Run one reverse pass, accumulating into ``.grad`` of every
        reachable leaf with ``requires_grad`` (a tensor with no recorded
        operation, such as a parameter or an input).  Intermediate tensors
        keep no ``.grad``: each one's gradient is freed as soon as its
        operation has consumed it.  The recorded graph is consumed: a second
        backward through it raises."""
        if self._consumed:
            raise RuntimeError("backward already run through this graph")
        if self._backward_fn is None and not self._parents:
            raise RuntimeError("backward on a tensor with no recorded operations")
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {seed.shape} does not match output "
                    f"shape {self.data.shape}")

        order = self._toposort()
        grads = {id(self): seed}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_fn is None:
                if not node._parents:
                    # g may be shared with another node's gradient
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if _FINITE_CHECKS and not np.all(np.isfinite(pg)):
                    raise FloatingPointError("non-finite gradient")
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
            node._consumed = True
            node._backward_fn = None

    def _toposort(self):
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self)
        out = self.data + other.data

        def bwd(g):
            return _unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape)

        return Tensor._make(out, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other, self)
        out = self.data * other.data
        a, b = self, other

        def bwd(g):
            return (_unbroadcast(g * b.data, a.data.shape),
                    _unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(out, (self, other), bwd)

    __rmul__ = __mul__

    def square(self):
        x = self.data

        def bwd(g):
            return (2.0 * x * g,)

        return Tensor._make(x * x, (self,), bwd)

    # -- reductions / reshaping ----------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(out, (self,), bwd)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape

        def bwd(g):
            return (g.reshape(old),)

        return Tensor._make(self.data.reshape(shape), (self,), bwd)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _coerce(x, like: Tensor) -> Tensor:
    """Wrap an operand of ``like``; a Python number becomes a 0-d array of
    the dtype NumPy gives ``like.data`` combined with it as a weak scalar."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=np.result_type(like.data, x)))
    return Tensor(np.asarray(x))


def _unbroadcast(g, shape):
    """Sum a gradient down to the shape the operand actually had."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- verification harness ----------------------------------------------------

def finite_diff_check(forward_fn, point, eps=1e-5):
    """Max relative error between the analytic gradient of a scalar-valued
    function and central finite differences, evaluated in the dtype of
    ``point`` (use float64 for meaningful tolerances)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = np.asarray(point.data if isinstance(point, Tensor) else point)

    x = Tensor(base.copy(), requires_grad=True)
    y = forward_fn(x)
    if y.data.size != 1:
        raise ValueError("forward_fn must be scalar-valued")
    if not np.isfinite(y.data).all():
        raise FloatingPointError("non-finite forward value")
    y.backward(np.ones_like(y.data))
    analytic = x.grad.reshape(-1)

    flat = base.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = float(forward_fn(Tensor(base)).data)
        flat[i] = saved - eps
        lo = float(forward_fn(Tensor(base)).data)
        flat[i] = saved
        numeric[i] = (hi - lo) / (2.0 * eps)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FloatingPointError("non-finite forward value in finite differences")

    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- deterministic randomness --------------------------------------------------

class Rng:
    """Counter-based random stream: (seed, stream) fully determines the
    sequence, and independent streams are cheap to split off."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64)))

    def split(self, stream: int) -> "Rng":
        return Rng(self.seed, stream)

    def normal(self, shape=(), mean=0.0, std=1.0, dtype=np.float64):
        if std < 0:
            raise ValueError("std must be non-negative")
        # scaled and shifted in place, then cast without a copy when the
        # dtype is already float64: the same values as mean + std * z
        z = self._gen.standard_normal(shape)
        z *= std
        z += mean
        return z.astype(dtype, copy=False)

    def uniform(self, lo=0.0, hi=1.0, shape=()):
        return self._gen.uniform(lo, hi, shape)

    def integers(self, lo, hi, shape=()):
        return self._gen.integers(lo, hi, shape)

    def uniform_sphere(self, dim: int):
        """Uniform sample from the unit sphere in R^dim."""
        if dim < 1:
            raise ValueError("dim must be at least 1")
        while True:
            v = self._gen.standard_normal(dim)
            n = np.linalg.norm(v)
            if n > 1e-12:
                return v / n

