"""One integrator for every continuous-time stage.

Each CT stage integrates an ODE that is linear in its state,

    x' = L(t) x + f(t),

with classical RK4. Over one step the RK4 stage sequence is itself an affine
map of the state, ``x_{k+1} = a_k x_k + b_k``, whose coefficients depend only
on the data. :func:`rk4_affine` builds those maps for all steps at once, and
:func:`affine_scan` composes them with a log-depth inclusive prefix scan
(Hillis and Steele; Blelloch, "Prefix sums and their applications", 1990).

``L`` is either elementwise (a scalar, or an array broadcasting against
``f``: one independent scalar ODE per component) or a batch of n-by-n
matrices of shape ``(N, n, n)`` with ``f`` of shape ``(N, n)``.
"""

from __future__ import annotations

import numpy as np


def _is_matrix(a, b: np.ndarray) -> bool:
    return np.ndim(a) == 3 and np.ndim(b) == 2


def _apply(L, x, matrix: bool):
    """``L x``: batched matrix-vector product or elementwise product."""
    return np.matmul(L, x[..., None])[..., 0] if matrix else L * x


def _compose(L, M, matrix: bool):
    """``L M``: batched matrix product or elementwise product."""
    return np.matmul(L, M) if matrix else L * M


def rk4_affine(L0, Lm, L1, f0, fm, f1, h: float):
    """Per-step affine map ``(a, b)`` of one RK4 step of ``x' = L x + f``.

    Stage data are taken at the left point (``L0``, ``f0``), the midpoint
    (``Lm``, ``fm``, used by the second and third stages) and the right point
    (``L1``, ``f1``) of each step, exactly as in the stage sequence

        k1 = L0 x + f0
        k2 = Lm (x + h/2 k1) + fm
        k3 = Lm (x + h/2 k2) + fm
        k4 = L1 (x + h k3) + f1
        x+ = x + h/6 (k1 + 2 k2 + 2 k3 + k4).

    Each stage is tracked as ``k_i = A_i x + B_i``; the returned ``a`` is
    ``I + h/6 (A1 + 2 A2 + 2 A3 + A4)`` and ``b`` is
    ``h/6 (B1 + 2 B2 + 2 B3 + B4)``.

    Coefficients that overflow come out non-finite, without a warning;
    :func:`affine_scan` then raises on the states they produce.
    """
    f0, fm, f1 = (np.asarray(v, dtype=float) for v in (f0, fm, f1))
    matrix = _is_matrix(L0, f0)
    one = np.eye(f0.shape[-1]) if matrix else 1.0
    hh = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        A1, B1 = L0, f0
        A2 = _compose(Lm, one + hh * A1, matrix)
        B2 = _apply(Lm, hh * B1, matrix) + fm
        A3 = _compose(Lm, one + hh * A2, matrix)
        B3 = _apply(Lm, hh * B2, matrix) + fm
        A4 = _compose(L1, one + h * A3, matrix)
        B4 = _apply(L1, h * B3, matrix) + f1
        a = one + (h / 6.0) * (A1 + 2.0 * A2 + 2.0 * A3 + A4)
        b = (h / 6.0) * (B1 + 2.0 * B2 + 2.0 * B3 + B4)
    return a, b


def affine_scan(a, b, x0) -> np.ndarray:
    """States ``x[0..N]`` of the recursion ``x_{k+1} = a_k x_k + b_k``.

    ``b`` has shape ``(N,) + s`` and ``x0`` shape ``s``. ``a`` is either a
    batch of matrices of shape ``(N, n, n)`` (with ``s == (n,)``) or
    broadcasts elementwise against ``b``. The prefix compositions

        (a2, b2) o (a1, b1) = (a2 a1, a2 b1 + b2)

    are formed by a Hillis-Steele inclusive scan in ceil(log2 N) vectorised
    passes over two work buffers per coefficient, so memory stays
    O(N * size of a).

    Raises ``FloatingPointError`` when a state is not finite: the recursion
    diverged (for an RK4 step map, for instance, a gain too large for the
    step) or its coefficients were not finite, as when building them from
    finite but huge data overflowed.
    """
    b = np.array(b, dtype=float)
    matrix = _is_matrix(a, b)
    count = b.shape[0]
    if not matrix:
        # a map shared by all components (a scalar) gets a time axis only
        steps = (count,) + (1,) * (b.ndim - 1)
        a = np.broadcast_to(a, np.broadcast_shapes(np.shape(a), steps))
    a = np.array(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    a_next, b_next = np.empty_like(a), np.empty_like(b)
    x = np.empty((count + 1,) + b.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1
        while d < count:
            # entry k holds the composition of maps k-d+1..k; composing it
            # after entry k-d extends it back to map k-2d+1 (or to map 0)
            a_next[:d], b_next[:d] = a[:d], b[:d]
            if matrix:
                np.matmul(a[d:], b[:-d, :, None], out=b_next[d:, :, None])
                np.matmul(a[d:], a[:-d], out=a_next[d:])
            else:
                np.multiply(a[d:], b[:-d], out=b_next[d:])
                np.multiply(a[d:], a[:-d], out=a_next[d:])
            b_next[d:] += b[d:]
            a, a_next = a_next, a
            b, b_next = b_next, b
            d *= 2
        x[0] = x0
        x[1:] = _apply(a, x0, matrix) + b
    if not np.isfinite(x).all():
        raise FloatingPointError(
            "recursion diverged: non-finite state (non-finite or overflowing data, or a"
            " gain too large for the integration step?)"
        )
    return x
