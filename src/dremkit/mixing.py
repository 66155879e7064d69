"""Mixing step: adjugate/determinant manipulation that decouples the extended
matrix regression Y = Phi theta into m scalar regressions

    calY_i = Delta * theta_i,   Delta = det(Phi),   calY = adj(Phi) Y,

plus the transient-improving feedforward gain.

The adjugate satisfies adj(M) M = M adj(M) = det(M) I for every square M,
including singular ones, which is why it is computed by cofactors (m <= 4)
or the Faddeev-LeVerrier recursion (m > 4) and never as inverse times
determinant. Both run over the sample axis of a whole record at once: the
cofactors from minors gathered with index tables, the recursion with
stacked matrix products. The per-matrix :func:`adjugate`,
:func:`determinant` and :func:`feedforward_gain` are the batched routines
applied to a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import Trajectory, check_records


def _square_dim(M: np.ndarray) -> int:
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M.shape[0]


# _KEEP[k][i] lists 0..k-1 without i: the rows (or columns) left when row
# (or column) i of a k x k matrix is deleted
_KEEP = {k: np.array([[j for j in range(k) if j != i] for i in range(k)]) for k in (2, 3, 4)}


def _cofactors(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cofactors (-1)^(i+j) det(minor_ij) of a stack of k x k matrices,
    2 <= k <= 4, for deleted rows i in ``rows`` and columns j in ``cols``
    (index arrays broadcast against each other); the minors are gathered
    with index tables."""
    k = M.shape[-1]
    keep = _KEEP[k]
    flat = keep[rows][..., :, None] * k + keep[cols][..., None, :]
    minors = np.take(M.reshape(M.shape[:-2] + (k * k,)), flat, axis=-1)
    cof = _small_det(minors)  # for k = 2 a view into the fresh minors
    cof *= 1.0 - 2.0 * ((rows + cols) % 2)
    return cof


def _first_row_expansion(M: np.ndarray, C0: np.ndarray) -> np.ndarray:
    """sum_j M[0, j] C0[j], accumulated left to right."""
    det = M[..., 0, 0] * C0[..., 0]
    for j in range(1, M.shape[-1]):
        det = det + M[..., 0, j] * C0[..., j]
    return det


def _small_det(M: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices, k <= 4, by first-row
    Laplace expansion."""
    k = M.shape[-1]
    if k == 1:
        return M[..., 0, 0]
    return _first_row_expansion(M, _cofactors(M, np.array(0), np.arange(k)))


def _adj_det_batch(Phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjugates and determinants of a stack of m x m matrices, computed
    for the whole stack at once.

    m <= 4: adj[j, i] is the cofactor at (i, j), and the determinant is the
    first-row expansion over those cofactors. m > 4: the Faddeev-LeVerrier
    recursion

        M_1 = I, c_1 = -tr(A);  M_k = A M_{k-1} + c_{k-1} I,
        c_k = -tr(A M_k) / k;   adj(A) = (-1)^(m-1) M_m,

    and the determinant by LU with partial pivoting (LAPACK).
    """
    m = Phis.shape[-1]
    if m == 1:
        return np.ones_like(Phis), Phis[..., 0, 0].copy()
    if m <= 4:
        idx = np.arange(m)
        adj = _cofactors(Phis, idx[None, :], idx[:, None])
        return adj, _first_row_expansion(Phis, adj[..., :, 0])
    eye = np.eye(m)
    Mk = np.broadcast_to(eye, Phis.shape).copy()
    ck = -np.trace(Phis, axis1=-2, axis2=-1)
    for k in range(2, m + 1):
        Mk = Phis @ Mk + ck[..., None, None] * eye
        ck = -np.trace(Phis @ Mk, axis1=-2, axis2=-1) / k
    return (-1.0) ** (m - 1) * Mk, np.linalg.det(Phis)


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor) matrix; defined for all square M.

    For m = 1 the adjugate is [1] so that adj(M) M = det(M) I still holds.
    """
    M = np.asarray(M, dtype=float)
    _square_dim(M)
    return _adj_det_batch(M[None])[0][0]


def determinant(M: np.ndarray) -> float:
    """Determinant by first-row expansion for m <= 4, LU with partial
    pivoting (LAPACK) above that."""
    M = np.asarray(M, dtype=float)
    _square_dim(M)
    return float(_adj_det_batch(M[None])[1][0])


@dataclass(frozen=True, eq=False)
class MixedRegression:
    """Per-sample mixed data: calY = adj(Phi) Y and Delta = det(Phi)."""

    calY: Trajectory
    Delta: Trajectory

    def __post_init__(self) -> None:
        check_records("MixedRegression", calY=(self.calY, "vector"), Delta=(self.Delta, "scalar"))

    @property
    def dim(self) -> int:
        return self.calY.dim


def mix(Y: Trajectory, Phi: Trajectory) -> MixedRegression:
    """Decouple the matrix regression sample by sample.

    When Y = Phi theta holds exactly, each component satisfies
    calY_i = Delta * theta_i.
    """
    check_records("mix", Y=(Y, "vector"), Phi=(Phi, "matrix"))
    if Y.dim != Phi.values.shape[1]:
        raise ValueError("Y and Phi dimensions disagree")
    adj, det = _adj_det_batch(Phi.values)
    calY = np.einsum("kij,kj->ki", adj, Y.values)
    return MixedRegression(
        calY=Trajectory(Y.grid, calY, Y.kind),
        Delta=Trajectory(Y.grid, det, Y.kind),
    )


def _feedforward_gains(Phi0: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d = adj(Phi0)^T phi for each sample of a stack ``(count, m, m)`` and
    ``(count, m)``."""
    adj, _ = _adj_det_batch(Phi0)
    return np.einsum("kji,kj->ki", adj, phi)


def feedforward_gain(Phi0: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Feedthrough vector d = adj(Phi0)^T phi.

    By the matrix determinant lemma det(A + u v^T) = det A + v^T adj(A) u,
    this choice gives

        det(Phi0 + d phi^T) = det(Phi0) + |adj(Phi0)^T phi|^2 >= det(Phi0),

    a guaranteed determinant boost; the untransposed variant adj(Phi0) phi
    makes the increment phi^T adj(Phi0)^2 phi, which is sign-indefinite.
    """
    Phi0 = np.asarray(Phi0, dtype=float)
    phi = np.asarray(phi, dtype=float)
    m = _square_dim(Phi0)
    if phi.shape != (m,):
        raise ValueError(f"phi must have shape ({m},)")
    return _feedforward_gains(Phi0[None], phi[None])[0]


def extend_with_feedforward(
    bank0, y: Trajectory, phi: Trajectory
) -> tuple[Trajectory, Trajectory]:
    """Extended pair with the determinant-boosting feedthrough.

    ``bank0`` defines the zero-feedthrough part (Phi0, Y0); the per-sample
    gain d(t) then acts identically on y and on phi^T, preserving
    Y = Phi theta:

        Phi = Phi0 + d phi^T,   Y = Y0 + d y.
    """
    from .operators import extend

    for ch in bank0.channels:
        if not ch.has_zero_feedthrough():
            raise ValueError("bank0 must have zero feedthrough on every channel")
    Y0, Phi0 = extend(bank0, y, phi)
    d = _feedforward_gains(Phi0.values, phi.values)
    Phi = Phi0.values + np.einsum("ki,kj->kij", d, phi.values)
    Yv = Y0.values + d * y.values[:, None]
    return Trajectory(y.grid, Yv, y.kind), Trajectory(y.grid, Phi, y.kind)
