"""Temporally-modulated distances and the symmetric 1-NN graph.

The method links every frame to its single closest neighbor under

    w(i, j) = (1 - <x_i_hat, x_j_hat>) * |t_i - t_j| / n_total

where x_hat is the L2-normalized feature vector. A node never links to
itself: the nearest-neighbor argmin is taken over j != i. Feature distances
can exceed 1 for signed features (negative dot products); they are
deliberately not clamped.

Two functions make the graph. ``nearest_neighbor_links`` streams the matrix
in row blocks, one GEMM per block and column tile; when the timestamps are
the frame positions 1..n (always so at the frame level) the temporal factor
is a Toeplitz matrix and each block multiplies by a zero-copy window of one
vector of gaps. It holds one float64 copy of its input (the normalized rows,
transposed into column tiles) and one output buffer of at most
``_BLOCK_ROWS * _TILE_COLS`` float64s (8 MiB), whatever n. ``components_of_links``
finds the components of the 1-NN graph by vectorized pointer doubling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValueError
from .types import Partition

# Row-block size for the streaming 1-NN kernel at every length. With
# _TILE_COLS it bounds the output buffer at 8 MiB. Kernel-only times at d = 64
# under 1 OpenBLAS thread on 2 shared x86-64 vCPUs (ms):
#
#   frames      500   2,000   4,000   8,000
#   256 rows   1.07    18.2    72.2     274
#   128 rows   1.09    16.8    73.3     279
#
# and 209 (256 rows) against 206 ms (128) at 8,000 frames under 2 threads.
# 64 rows cost 5-8% at 8,000 frames and about 20% at 500; 512 rows were no
# faster; a single tile of byte-budgeted rows was slower.
_BLOCK_ROWS = 128
# Widest column tile of the 1-NN kernel, in whole row blocks: inputs of up to
# this many rows run as one tile. 4096-column tiles measured about 10% slower
# at 8000 rows: two GEMMs per block, and numpy buffers a Toeplitz window of
# at most 4096 columns before it multiplies.
_TILE_COLS = 8192


def l2_normalize(vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise L2 normalization in float64; zero rows stay zero."""
    x = np.asarray(vectors, dtype=np.float64)
    # np.linalg.norm's own computation, without its dispatch.
    norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
    return np.divide(x, np.where(norms > 0.0, norms, 1.0), out=out)


def nearest_neighbor_links(vectors, timestamps, n_total: int, *,
                           temporal: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Row-blocked, column-tiled 1-NN computation without materializing the
    full matrix.

    Returns ``(nn, link_w)`` where ``nn[i]`` is the argmin over j != i of the
    (temporally weighted) distance and ``link_w[i]`` its value; ties break
    toward the lowest index. The rows are widened to float64 and normalized
    once, a block at a time, into column tiles of their transpose: one
    float64 copy of the input. Each block of rows is scored against one tile
    at a time, into one buffer of at most ``_BLOCK_ROWS * _TILE_COLS``
    entries, and each tile's row minima merge into the running best from
    left to right. Inputs of up to ``_TILE_COLS`` rows are one tile.
    """
    x = np.atleast_2d(np.asarray(vectors))
    n = x.shape[0]
    if n < 2:
        raise InvalidValueError("a 1-NN graph needs at least 2 nodes")
    t = np.asarray(timestamps, dtype=np.float64).ravel()
    if temporal and n_total == 0:
        raise InvalidValueError("temporal normalizer n_total must be positive")
    if temporal and t.shape[0] != n:
        raise InvalidValueError(f"{t.shape[0]} timestamps for {n} nodes")
    rows = min(_BLOCK_ROWS, n)
    bounds = _tile_bounds(n, rows)
    tiles = []
    for c0, c1 in zip(bounds, bounds[1:]):
        tile = np.empty((x.shape[1], c1 - c0))
        for lo in range(c0, c1, rows):
            l2_normalize(x[lo:min(lo + rows, c1)], out=tile[:, lo - c0:lo - c0 + rows].T)
        tiles.append(tile)
    nn = np.empty(n, dtype=np.int64)
    link_w = np.empty(n, dtype=np.float64)
    w_buf = np.empty(rows * bounds[1], dtype=np.float64)
    toeplitz = t_buf = None
    if temporal and t[0] == 1.0 and t[-1] == n and np.array_equal(t, np.arange(1, n + 1)):
        # Frame positions: |t_i - t_j| = |i - j|, so every row of the factor
        # is a window of one vector of gaps. The values equal the general
        # path's.
        toeplitz = _gap_windows(n, n_total)
    elif temporal:
        t_buf = np.empty_like(w_buf)
    for a0, a1, a_tile in zip(bounds, bounds[1:], tiles):
        for lo in range(a0, a1, rows):
            hi = min(lo + rows, n)
            # A contiguous copy of the block's normalized rows: the GEMM then
            # sees the operand it would over one full-width matrix.
            a = a_tile[:, lo - a0:hi - a0].T.copy()
            for c0, c1, tile in zip(bounds, bounds[1:], tiles):
                w = w_buf[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
                np.dot(a, tile, out=w)
                np.subtract(1.0, w, out=w)
                if toeplitz is not None:
                    w *= toeplitz[lo:hi, c0:c1]
                elif temporal:
                    tb = t_buf[:w.size].reshape(w.shape)
                    np.subtract(t[lo:hi, None], t[None, c0:c1], out=tb)
                    np.abs(tb, out=tb)
                    tb /= float(n_total)
                    w *= tb
                if c0 == a0:
                    # Row r's own column lo + r: every (width + 1)-th entry
                    # of the block from lo - c0.
                    w.reshape(-1)[lo - c0::c1 - c0 + 1] = np.inf
                idx = w.argmin(axis=1)
                val = w[np.arange(hi - lo), idx]
                if c0 == 0:
                    nn[lo:hi], link_w[lo:hi] = idx, val
                else:
                    # Strictly smaller only: a tie stays with the lower index.
                    better = val < link_w[lo:hi]
                    nn[lo:hi][better] = idx[better] + c0
                    link_w[lo:hi][better] = val[better]
    return nn, link_w


def _gap_windows(n: int, n_total: int) -> np.ndarray:
    """The n x n factor |i - j| / n_total as a zero-copy view of one vector
    of 2n - 1 gaps, row i starting at gap n - 1 - i. Constructed directly:
    ``sliding_window_view`` took 16 us of a 1.2 ms 500-row call."""
    gaps = np.abs(np.arange(1 - n, n, dtype=np.float64)) / float(n_total)
    return np.ndarray((n, n), np.float64, gaps, (n - 1) * gaps.itemsize,
                      (-gaps.itemsize, gaps.itemsize))


def _tile_bounds(n: int, rows: int) -> list[int]:
    """Column bounds of the fewest tiles of at most ``_TILE_COLS`` columns
    that cover n: each tile whole ``rows``-row blocks (the last block may be
    partial), spread evenly, the wider tiles first. Even spreading keeps every
    tile wide; a one-column last tile would run as a GEMV, whose bits differ.
    """
    if n <= _TILE_COLS:
        return [0, n]
    blocks = -(-n // rows)
    count = -(-blocks // max(1, _TILE_COLS // rows))
    q, r = divmod(blocks, count)
    return [min(n, (i * q + min(i, r)) * rows) for i in range(count + 1)]


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
