"""The L-BFGS tail of the projected descent: the memory of steps and
tangent-gradient changes, and the two-loop direction (Liu & Nocedal, Math.
Program. 45, 1989) that ``optimize._minimize`` steps along from pass
``optimize._QN_START`` on.  Products are sums over the DST-I modes of the
pass's metric sigma + s, and the direction is projected on the tangent
space of M, as in Riemannian L-BFGS (see ``optimize``).
"""

from __future__ import annotations

import numpy as np

from .manifold import _project_dst

_QN_MEMORY = 5


class _Pairs:
    """The L-BFGS memory: the newest ``_QN_MEMORY`` pairs (s, y) of DST-I
    coefficients, slot k in rows 2 k and 2 k + 1 of ``ring``, whose last
    row is the pass's gradient g; the slots take pairs in turn, one more
    than the memory keeps, so that the next pair never overwrites one kept.
    ``gram`` keeps the rows' products as sums over modes of sigma a b and of
    a b: the metric sigma + s reads G_sigma + s G_1.  As y is the change of
    g, its products with older rows are the change of theirs with g since
    the last pass; the recursion reads <s_i, y_j> and <y_i, y_j> only with j
    at least as new as i."""

    def __init__(self, sigma: np.ndarray):
        self.m, rows = _QN_MEMORY, 2 * _QN_MEMORY + 3
        self.sigma = sigma.ravel()
        self.ring = np.zeros((rows, sigma.size))
        self.gram = np.zeros((2, rows, rows))  # G_sigma, G_1
        self.own, self.now = np.empty((2, 2)), np.empty((2, rows))  # (sy, yy); ring g
        self.order: list[int] = []  # the slots in use, oldest first
        self.stored = 0

    def push(self, u_hat: np.ndarray, gt_hat: np.ndarray, prev_u_hat: np.ndarray,
             prev_gt_hat: np.ndarray, shift: float) -> None:
        """Store the pair (u_hat - prev_u_hat, gt_hat - prev_gt_hat) unless
        its sy in the metric sigma + s is not positive, and take the ring's
        products with g = ``gt_hat``."""
        ring, gram, sigma, own, now = self.ring, self.gram, self.sigma, self.own, self.now
        k = self.stored % (self.m + 1)
        pair = ring[2 * k:2 * k + 2]
        np.subtract(u_hat.ravel(), prev_u_hat.ravel(), out=pair[0])
        y = np.subtract(gt_hat.ravel(), prev_gt_hat.ravel(), out=pair[1])
        np.dot(pair, sigma * y, out=own[0])
        np.dot(pair, y, out=own[1])
        g = ring[-1]
        g[:] = gt_hat.ravel()
        np.dot(ring, sigma * g, out=now[0])
        np.dot(ring, g, out=now[1])
        if own[0, 0] + shift * own[1, 0] > 0.0:
            self.order.append(k)
            del self.order[:-self.m]
            self.stored += 1
            delta = now - gram[:, -1]
            delta[:, 2 * k:2 * k + 2] = own
            gram[:, :, 2 * k + 1] = gram[:, 2 * k + 1] = delta
        gram[:, -1] = now


def _quasi_newton_direction(u_hat: np.ndarray, qu_hat: np.ndarray, gt_hat: np.ndarray,
                            symbol: np.ndarray, shift: float,
                            pairs: _Pairs) -> np.ndarray | None:
    """The L-BFGS direction at g = ``gt_hat``, or None when the memory holds
    no pair whose sy is positive.  The two-loop recursion runs on d's
    coefficients in the ring's rows, with the scale sy / yy of the newest
    pair, in the metric sigma + s, where a pair whose sy is not positive is
    left out.  d is projected with ``_project_dst``: the pairs were taken at
    other iterates.  The caller tests the merit's slope along d."""
    gram = (pairs.gram[0] + shift * pairs.gram[1]).tolist()
    prod = gram[-1]
    ys = [2 * k + 1 for k in pairs.order if gram[2 * k][2 * k + 1] > 0.0]  # y rows
    if ys:
        n = len(ys)
        rho = [1.0 / gram[j - 1][j] for j in ys]
        alpha = [0.0] * n
        for p in range(n - 1, -1, -1):
            row, acc = gram[ys[p] - 1], prod[ys[p] - 1]
            for q in range(p + 1, n):
                acc -= alpha[q] * row[ys[q]]
            alpha[p] = rho[p] * acc
        j = ys[-1]
        gamma = gram[j - 1][j] / gram[j][j]
        coef = [0.0] * len(prod)
        coef[-1] = gamma
        for p in range(n):
            j = ys[p]
            row, acc = gram[j], prod[j]
            for q in range(n):
                acc -= alpha[q] * row[ys[q]]
            acc *= gamma
            for q in range(p):
                acc += coef[ys[q] - 1] * gram[ys[q] - 1][j]
            coef[j - 1], coef[j] = alpha[p] - rho[p] * acc, -gamma * alpha[p]
        d_hat = (np.array(coef) @ pairs.ring).reshape(gt_hat.shape)
        return _project_dst(u_hat, qu_hat, d_hat, symbol)[0]
    return None
