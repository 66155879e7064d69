"""One integrator for every continuous-time stage.

Each CT stage integrates an ODE that is linear in its state,

    x' = L(t) x + f(t),

with classical RK4. Over one step the RK4 stage sequence is itself an affine
map of the state, ``x_{k+1} = a_k x_k + b_k``, whose coefficients depend only
on the data. :func:`rk4_affine` builds those maps for all steps at once, and
:func:`affine_scan` composes them with a log-depth inclusive prefix scan
(Hillis and Steele; Blelloch, "Prefix sums and their applications", 1990).

``L`` is either a batch of n-by-n matrices of shape ``(N, n, n)``, with ``f``
of shape ``(N, n)`` or ``(N, n, c)`` (c state columns, one map each), or
elementwise: a scalar, or an array broadcasting against ``f``, one
independent scalar ODE per component. Both run in one layout of component
planes: matrix entry ``(i, j)`` is a plane holding that coefficient over time,
time on its last axis, and an elementwise map is the n = 1 case, whose planes
carry ``f``'s components as batch axes. Every product of two maps, or of a
map and a state, is a sum of plane products taken in the order of the summed
index, so at n = 1 it is the elementwise product.
"""

from __future__ import annotations

import numpy as np


def _planes(a, b):
    """Maps ``(a, b)`` as component planes, time last: views ``A`` of shape
    ``(n, n, ..., N)`` and ``B`` of shape ``(n, ..., N)``. An ``a`` of shape
    ``(N, n, n)`` with ``b`` of shape ``(N, n)`` or ``(N, n, c)`` is a batch
    of matrices, shared by the c columns; any other ``a`` acts elementwise
    and becomes 1x1 planes over ``b``'s components."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim == 3 and b.ndim in (2, 3) and a.shape[1:] == (b.shape[1],) * 2:
        A = np.moveaxis(a, 0, -1)
        return (A[:, :, None] if b.ndim == 3 else A), np.moveaxis(b, 0, -1)
    # a shared map keeps length-1 axes, so a scalar gets a time axis only
    a = a.reshape((1,) * (b.ndim - a.ndim) + a.shape)
    return np.moveaxis(a, 0, -1)[None, None], np.moveaxis(b, 0, -1)[None]


def _dot(left, right, out=None, work=None):
    """``sum_k left[k] * right[k]`` over component planes, added in k order,
    into ``out`` with ``work`` holding one product at a time (both allocated
    when not given)."""
    out = np.multiply(left[0], right[0], out=out)
    for k in range(1, len(left)):
        out += np.multiply(left[k], right[k], out=work)
    return out


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
    ``h/6 (B1 + 2 B2 + 2 B3 + B4)``, shaped like the ``L`` and the ``f``
    broadcast together. The stage products are planar sums in the order of
    :func:`affine_scan`, so stacking state columns in ``f`` changes no
    column's bits.

    Coefficients that overflow come out non-finite, without a warning;
    :func:`affine_scan` then raises on the states they produce.
    """
    a_shape = np.broadcast_shapes(np.shape(L0), np.shape(Lm), np.shape(L1))
    b_shape = np.broadcast_shapes(np.shape(f0), np.shape(fm), np.shape(f1))
    (L0, f0), (Lm, fm), (L1, f1) = (_planes(L, f) for L, f in ((L0, f0), (Lm, fm), (L1, f1)))
    n = len(f0)
    one = np.eye(n).reshape((n, n) + (1,) * (L0.ndim - 2))
    hh = 0.5 * h

    def stage(L, A, B, f, step):
        """The next stage's ``(L (I + step A), L (step B) + f)``; ``columns[k]``
        is column k of ``L``, so each sum over k forms every row at once."""
        columns = np.swapaxes(L, 0, 1)
        return _dot(columns[:, :, None], one + step * A), _dot(columns, step * B) + f

    with np.errstate(over="ignore", invalid="ignore"):
        A1, B1 = L0, f0
        A2, B2 = stage(Lm, A1, B1, fm, hh)
        A3, B3 = stage(Lm, A2, B2, fm, hh)
        A4, B4 = stage(L1, A3, B3, f1, h)
        a = one + (h / 6.0) * (A1 + 2.0 * A2 + 2.0 * A3 + A4)
        b = (h / 6.0) * (B1 + 2.0 * B2 + 2.0 * B3 + B4)
    return np.moveaxis(a, -1, 0).reshape(a_shape), np.moveaxis(b, -1, 0).reshape(b_shape)


def affine_scan(a, b, x0) -> np.ndarray:
    """States ``x[0..N]`` of the recursion ``x_{k+1} = a_k x_k + b_k``.

    ``b`` has shape ``(N,) + s`` and the states shape ``s``; ``x0``
    broadcasts to ``s``. ``a`` is either a batch of matrices of shape
    ``(N, n, n)``, with ``s`` ``(n,)`` or ``(n, c)`` (c state columns under
    the same maps), or broadcasts elementwise against ``b``. The prefix
    compositions

        (a2, b2) o (a1, b1) = (a2 a1, a2 b1 + b2)

    are formed by a Hillis-Steele inclusive scan in ceil(log2 N) vectorised
    passes over two work buffers per coefficient, so memory stays
    O(N * size of a). The maps are held as component planes (see the module
    docstring), so a pass is n^3 + n^2 length-N multiply-adds per column
    batch rather than N small matrix products, whose per-matrix overhead
    dominates at n <= 3; elementwise maps are the n = 1 case.

    Raises ``FloatingPointError`` when a state is not finite: the recursion
    diverged (for an RK4 step map, for instance, a gain too large for the
    step) or its coefficients were not finite, as when building them from
    finite but huge data overflowed.
    """
    A, B = _planes(a, b)
    count = B.shape[-1]
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), B.shape[:-1])
    # fresh time-last copies, since the passes write into both buffers of
    # each pair: a caller's array can already be time-last (a matrix at
    # n = 1, maps over one column), and np.ascontiguousarray would hand back
    # the caller's array itself
    A = np.array(np.broadcast_to(A, A.shape[:-1] + (count,)), order="C")
    B = np.array(B, order="C")
    n = len(B)
    A_next, B_next = np.empty_like(A), np.empty_like(B)
    work_a, work_b = np.empty(A.shape[2:]), np.empty(B.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1
        while d < count:
            # entry k holds the composition of maps k-d+1..k; composing it
            # after entry k-d extends it back to map k-2d+1 (or to map 0)
            A_next[..., :d], B_next[..., :d] = A[..., :d], B[..., :d]
            for i in range(n):
                _dot(A[i, ..., d:], B[..., :-d], B_next[i, ..., d:], work_b[..., d:])
                B_next[i, ..., d:] += B[i, ..., d:]
                for j in range(n):
                    _dot(A[i, ..., d:], A[:, j, ..., :-d], A_next[i, j, ..., d:], work_a[..., d:])
            A, A_next = A_next, A
            B, B_next = B_next, B
            d *= 2
        # x[k+1] = A[k] x0 + B[k], formed in the spare B buffer
        for i in range(n):
            _dot(A[i], x0[..., None], B_next[i], work_b)
            B_next[i] += B[i]
    x = np.empty((count + 1,) + B.shape[:-1])
    x[0] = x0
    x[1:] = np.moveaxis(B_next, -1, 0)
    if not np.isfinite(x).all():
        raise FloatingPointError(
            "recursion diverged: non-finite state (non-finite or overflowing data, or a"
            " gain too large for the integration step?)"
        )
    return x.reshape((count + 1,) + np.shape(b)[1:])
