"""Minimal dense reverse-mode differentiation.

Only the primitive set needed by this project is implemented (add, mul,
matmul, exp, log, max, relu, tanh and reductions).  Values are float64
numpy arrays; every primitive checks its output for NaN/Inf and raises
instead of propagating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def relu(x: Node) -> Node:
    mask = x.value > 0.0
    return Node(np.where(mask, x.value, 0.0), (x,), (lambda g: g * mask,))


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


# -- parameter vectors and tapes -------------------------------------------

@dataclass(frozen=True)
class ParameterLayout:
    """Maps named slices of a flat parameter vector to array shapes."""

    entries: tuple  # of (name, shape) pairs

    @cached_property
    def size(self) -> int:
        return sum(math.prod(shape) for _, shape in self.entries)

    def unflatten(self, flat: np.ndarray) -> dict:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.size,):
            raise DimensionError(
                f"parameter vector has size {flat.shape}, layout "
                f"expects ({self.size},)")
        out = {}
        offset = 0
        for name, shape in self.entries:
            n = math.prod(shape)
            out[name] = flat[offset:offset + n].reshape(shape)
            offset += n
        return out

    def flatten(self, arrays: dict) -> np.ndarray:
        return np.concatenate(
            [np.asarray(arrays[name], dtype=np.float64).ravel()
             for name, _ in self.entries])


@dataclass(frozen=True)
class ParameterVector:
    """A flat float64 parameter vector plus its layer layout."""

    values: np.ndarray
    layout: ParameterLayout

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            _check_finite(np.asarray(self.values, dtype=np.float64)))
        if self.values.shape != (self.layout.size,):
            raise DimensionError(
                f"values size {self.values.shape} does not cover layout "
                f"size {self.layout.size}")


@dataclass(frozen=True)
class Tape:
    """A recorded scalar-valued computation over a parameter vector.

    `builder` maps a dict of parameter Nodes (keyed by layout entry name)
    to a scalar Node.  Replaying the builder is deterministic, so repeated
    evaluation reproduces the recorded output bit-for-bit.
    """

    builder: object
    layout: ParameterLayout

    def _run(self, theta: ParameterVector):
        if theta.layout != self.layout:
            raise DimensionError("parameter layout does not match tape")
        params = {name: Node(arr)
                  for name, arr in self.layout.unflatten(
                      theta.values).items()}
        out = self.builder(params)
        if out.value.ndim != 0:
            raise DimensionError("tape output must be scalar")
        return params, out


def evaluate(tape: Tape, theta: ParameterVector) -> float:
    """Forward-replay the tape and return its scalar value."""
    _, out = tape._run(theta)
    return float(out.value)


def gradient(tape: Tape, theta: ParameterVector) -> ParameterVector:
    """Exact reverse-mode gradient of the tape's scalar output."""
    params, out = tape._run(theta)
    grads = backward(out)
    arrays = {name: grads.get(id(node), np.zeros(node.shape))
              for name, node in params.items()}
    return ParameterVector(tape.layout.flatten(arrays), tape.layout)


def finite_diff_gradient(f, theta: ParameterVector,
                         h: float = 1e-4) -> ParameterVector:
    """Central-difference gradient of a scalar function of theta.

    Independent of the reverse-mode path; used as its oracle.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    base = theta.values
    grad = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[i] += h
        minus[i] -= h
        fp = f(ParameterVector(plus, theta.layout))
        fm = f(ParameterVector(minus, theta.layout))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError("non-finite function value in difference")
        grad[i] = (fp - fm) / (2.0 * h)
    return ParameterVector(grad, theta.layout)
