"""Graph-construction helpers for the autograd engine.

The engine is tape-free: each :class:`~repro.tensor.tensor.Tensor` produced
by an operation stores its parents and a backward closure.  ``backward_op``
is the single entry point used by every primitive to register that closure,
which keeps the grad-mode / requires-grad bookkeeping in one place.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    NumPy broadcasting implicitly expands operands; the corresponding
    gradient must be summed over every expanded axis so that
    ``grad.shape == shape`` holds for the accumulation into ``Tensor.grad``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward_op(
    out_data: np.ndarray,
    parents: Sequence["Tensor"],
    grad_fn: Callable[[np.ndarray], Sequence],
    op: str = "",
) -> "Tensor":
    """Wrap ``out_data`` in a Tensor connected to ``parents``.

    ``grad_fn(grad_out)`` must return one gradient array (or ``None``) per
    parent, already shaped like that parent's data.  When grad mode is off or
    no parent requires grad, the result is a detached leaf — the graph is
    never built, so inference runs allocation-lean.
    """
    from repro.tensor.tensor import Tensor, is_grad_enabled

    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out._prev = tuple(parents)
        out._op = op

        def _backward(grad_out: np.ndarray) -> None:
            grads = grad_fn(grad_out)
            for parent, g in zip(parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                g = np.asarray(g, dtype=parent.data.dtype)
                if parent.grad is None:
                    parent.grad = g.copy() if g.base is not None else g
                else:
                    # not ``+=``: parent.grad may be the very array another
                    # node still waits on (``add`` hands one g to both sides)
                    parent.grad = parent.grad + g

        out._backward = _backward
    return out


def topo_sort(root: "Tensor") -> list:
    """Return tensors reachable from ``root`` in reverse-topological order.

    Iterative DFS — the graphs produced by unrolled training loops can exceed
    CPython's default recursion limit.
    """
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order
