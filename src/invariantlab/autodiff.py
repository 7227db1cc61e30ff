"""Minimal dense reverse-mode differentiation.

Only the primitive set needed by this project is implemented (add, mul,
matmul, exp, log, max, tanh and reductions).  Values are float64
numpy arrays; every primitive checks its output for NaN/Inf and raises
instead of propagating.  `gradient` differentiates a scalar function of
a list of arrays through the graph.  Training does not use the graph,
and the tests check the training gradient against a complex-step
oracle of their own; the engine and the graph forms of the losses stay
only while perfbench's tracer wraps `backward`, `log_probs_graph`,
`cross_entropy_graph` and `dist_reg_graph` by name (ROADMAP item 10).
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced a NaN or Inf value."""


class DimensionError(ValueError):
    """Shapes of operands do not match."""


def _check_finite(value: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(value)):
        raise NonFiniteError("non-finite value in computation")
    return value


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Node:
    """A value in the computation graph with its local backward rules."""

    __slots__ = ("value", "parents", "vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = _check_finite(np.asarray(value, dtype=np.float64))
        self.parents = parents
        self.vjps = vjps

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_node(other)
        return Node(
            self.value + other.value,
            (self, other),
            (lambda g: _unbroadcast(g, self.shape),
             lambda g: _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return Node(-self.value, (self,), (lambda g: -g,))

    def __sub__(self, other):
        return self + (-as_node(other))

    def __rsub__(self, other):
        return as_node(other) + (-self)

    def __mul__(self, other):
        other = as_node(other)
        return Node(
            self.value * other.value,
            (self, other),
            (lambda g: _unbroadcast(g * other.value, self.shape),
             lambda g: _unbroadcast(g * self.value, other.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_node(other)
        return Node(
            self.value / other.value,
            (self, other),
            (lambda g: _unbroadcast(g / other.value, self.shape),
             lambda g: _unbroadcast(-g * self.value / other.value ** 2,
                                    other.shape)),
        )

    def __matmul__(self, other):
        other = as_node(other)
        a, b = self.value, other.value
        if a.shape[-1] != b.shape[0]:
            raise DimensionError(
                f"matmul: inner dimensions {a.shape} @ {b.shape}")

        def vjp_a(g):
            if b.ndim == 1:
                return np.outer(g, b) if a.ndim > 1 else g * b
            return g @ b.T

        def vjp_b(g):
            if a.ndim == 1:
                return np.outer(a, g) if b.ndim > 1 else g * a
            return a.T @ g

        return Node(a @ b, (self, other), (vjp_a, vjp_b))


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def constant(x) -> Node:
    return Node(np.asarray(x, dtype=np.float64))


# -- primitives ------------------------------------------------------------

def exp(x: Node) -> Node:
    with np.errstate(over="ignore"):
        out = np.exp(x.value)
    return Node(out, (x,), (lambda g: g * out,))


def log(x: Node) -> Node:
    if np.any(x.value <= 0.0):
        raise NonFiniteError("log of non-positive value")
    return Node(np.log(x.value), (x,), (lambda g: g / x.value,))


def tanh(x: Node) -> Node:
    out = np.tanh(x.value)
    return Node(out, (x,), (lambda g: g * (1.0 - out ** 2),))


def maximum(x: Node, other) -> Node:
    other = as_node(other)
    mask = x.value >= other.value
    return Node(
        np.maximum(x.value, other.value),
        (x, other),
        (lambda g: _unbroadcast(g * mask, x.shape),
         lambda g: _unbroadcast(g * ~mask, other.shape)),
    )


def minimum(x: Node, other) -> Node:
    other = as_node(other)
    mask = x.value <= other.value
    return Node(
        np.minimum(x.value, other.value),
        (x, other),
        (lambda g: _unbroadcast(g * mask, x.shape),
         lambda g: _unbroadcast(g * ~mask, other.shape)),
    )


def sum_(x: Node, axis=None) -> Node:
    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, x.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), x.shape).copy()
    return Node(x.value.sum(axis=axis), (x,), (vjp,))


def mean(x: Node, axis=None) -> Node:
    n = x.value.size if axis is None else x.value.shape[axis]
    return sum_(x, axis=axis) * (1.0 / n)


def logsumexp(x: Node, axis: int) -> Node:
    """log(sum(exp(x))) along `axis`, stabilized with a detached shift."""
    shift = constant(np.max(x.value, axis=axis, keepdims=True))
    shifted = x - shift
    expanded = log(sum_(exp(shifted), axis=axis))
    return expanded + constant(np.squeeze(shift.value, axis=axis))


def backward(output: Node) -> dict:
    """Accumulate d(output)/d(node) for every node reachable from `output`.

    The output must be scalar.  Returns an id->gradient mapping.
    """
    if output.value.ndim != 0:
        raise DimensionError("backward requires a scalar output")
    order = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    grads = {id(output): np.ones(())}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = _check_finite(np.asarray(vjp(g), dtype=np.float64))
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
    return grads


# -- gradient of a graph function ------------------------------------------

def gradient(f, arrays) -> list:
    """Exact reverse-mode gradient of the scalar Node function `f`.

    `f` takes one Node per array of `arrays`; the result holds one
    gradient per array, zeros for an array `f` does not use.
    """
    nodes = [Node(a) for a in arrays]
    grads = backward(f(*nodes))
    return [grads.get(id(node), np.zeros(node.shape)) for node in nodes]

