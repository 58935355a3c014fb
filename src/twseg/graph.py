"""Temporally-modulated distances and the symmetric 1-NN graph.

The method links every frame to its single closest neighbor under

    w(i, j) = (1 - <x_i_hat, x_j_hat>) * |t_i - t_j| / n_total

where x_hat is the L2-normalized feature vector. A node never links to
itself: the nearest-neighbor argmin is taken over j != i. Feature distances
can exceed 1 for signed features (negative dot products); they are
deliberately not clamped.

Two functions make the graph. ``nearest_neighbor_links`` streams the matrix
in row blocks, one GEMM per block; when the timestamps are the frame
positions 1..n (always so at the frame level) the temporal factor is a
Toeplitz matrix and each block multiplies by a zero-copy window of one
vector of gaps. ``components_of_links`` finds the components of the 1-NN
graph by vectorized pointer doubling.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TooFewNodesError, ZeroLengthError
from .types import Partition

# Row-block size for the streaming 1-NN kernel at every length: the per-block
# working set stays cache-resident, and 512-row blocks measured no faster even
# at 500-1000 rows.
_BLOCK_ROWS = 256


def l2_normalize(vectors: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization in float64; zero rows stay zero."""
    x = np.asarray(vectors, dtype=np.float64)
    # np.linalg.norm's own computation, without its dispatch.
    norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
    return x / np.where(norms > 0.0, norms, 1.0)


def nearest_neighbor_links(vectors, timestamps, n_total: int, *,
                           temporal: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Row-blocked 1-NN computation without materializing the full matrix.

    Returns ``(nn, link_w)`` where ``nn[i]`` is the argmin over j != i of the
    (temporally weighted) distance and ``link_w[i]`` its value; ties break
    toward the lowest index. Memory stays O(_BLOCK_ROWS * n).
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = x.shape[0]
    if n < 2:
        raise TooFewNodesError("a 1-NN graph needs at least 2 nodes")
    if temporal and n_total == 0:
        raise ZeroLengthError("temporal normalizer n_total must be positive")
    xn = l2_normalize(x)
    xt = np.ascontiguousarray(xn.T)
    t = np.asarray(timestamps, dtype=np.float64).ravel()
    nn = np.empty(n, dtype=np.int64)
    link_w = np.empty(n, dtype=np.float64)
    rows = min(_BLOCK_ROWS, n)
    w_buf = np.empty((rows, n), dtype=np.float64)
    toeplitz = t_buf = None
    if temporal and t[0] == 1.0 and t[-1] == n and np.array_equal(t, np.arange(1, n + 1)):
        # Frame positions: |t_i - t_j| = |i - j|, so every row of the factor
        # is a window of one vector of gaps; row i of the reversed windows
        # holds |i - j| / n_total. The values equal the general path's.
        gaps = np.abs(np.arange(1 - n, n, dtype=np.float64)) / float(n_total)
        toeplitz = sliding_window_view(gaps, n)[::-1]
    elif temporal:
        t_buf = np.empty((rows, n), dtype=np.float64)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        w = np.dot(xn[lo:hi], xt, out=w_buf[: hi - lo])
        np.subtract(1.0, w, out=w)
        if toeplitz is not None:
            w *= toeplitz[lo:hi]
        elif temporal:
            tb = t_buf[: hi - lo]
            np.subtract(t[lo:hi, None], t[None, :], out=tb)
            np.abs(tb, out=tb)
            tb /= float(n_total)
            w *= tb
        # Row r's own column lo + r: every (n + 1)-th entry of the block from lo.
        w.reshape(-1)[lo::n + 1] = np.inf
        idx = np.argmin(w, axis=1)
        nn[lo:hi] = idx
        link_w[lo:hi] = w[np.arange(hi - lo), idx]
    return nn, link_w


def components_of_links(nn: np.ndarray) -> Partition:
    """Connected components of the symmetrized out-link set {(i, nn[i])}.

    Every node has exactly one out-link, so each component holds exactly one
    cycle, of any length, and every node reaches it in fewer than n steps.
    Pointer doubling runs ceil(log2 n) rounds; after round r, ``low[i]`` is
    the smallest of the 2**r nodes on the path from i and ``nxt[i]`` the node
    2**r steps on. At the end ``nxt[i]`` lies on i's cycle and ``low`` there
    is the cycle's minimum, which names the component. Labels are dense,
    ordered by each component's smallest member.
    """
    nn = np.asarray(nn, dtype=np.int64)
    n = nn.shape[0]
    low = np.arange(n)
    nxt = nn
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low[nxt])
        nxt = nxt[nxt]
    root = low[nxt]
    # Number the components in order of their smallest member.
    smallest = np.full(n, n)
    np.minimum.at(smallest, root, np.arange(n))
    key = smallest[root]
    rank = np.cumsum(key == np.arange(n)) - 1
    return Partition._unchecked(rank[key], int(rank[-1]) + 1)
