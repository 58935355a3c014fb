"""Straightforward implementations the fast production paths must match bit for bit.

``reference_links`` is the row-blocked 1-NN kernel with the temporal factor
built elementwise for every block; ``reference_summary`` averages each
cluster with one weighted ``bincount`` per feature column. Both accumulate in
the same order as the production code, so results compare with exact
equality, not a tolerance.
"""

import numpy as np

from twseg.graph import l2_normalize
from twseg.hierarchy import LevelSummary


def reference_links(vectors, timestamps, n_total, *, temporal=True, block_rows=256):
    x = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = x.shape[0]
    xn = l2_normalize(x)
    xt = np.ascontiguousarray(xn.T)
    t = np.asarray(timestamps, dtype=np.float64).ravel()
    nn = np.empty(n, dtype=np.int64)
    link_w = np.empty(n, dtype=np.float64)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        w = 1.0 - np.dot(xn[lo:hi], xt)
        if temporal:
            w *= np.abs(t[lo:hi, None] - t[None, :]) / float(n_total)
        w[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nn[lo:hi] = np.argmin(w, axis=1)
        link_w[lo:hi] = w[np.arange(hi - lo), nn[lo:hi]]
    return nn, link_w


def reference_summary(seq, p) -> LevelSummary:
    c = p.num_clusters
    sizes = np.bincount(p.labels, minlength=c)
    frames = seq.frames.astype(np.float64)
    sums = np.empty((c, seq.dim), dtype=np.float64)
    for j in range(seq.dim):
        sums[:, j] = np.bincount(p.labels, weights=frames[:, j], minlength=c)
    mean_times = np.bincount(p.labels, weights=seq.timestamps, minlength=c) / sizes
    return LevelSummary(sums / sizes[:, None], mean_times, sizes)


def bitwise_equal(a, b) -> bool:
    """Same shape and dtype and the same bits in every element (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def summaries_equal(s, ref) -> bool:
    return (bitwise_equal(s.means, ref.means) and bitwise_equal(s.mean_times, ref.mean_times)
            and bitwise_equal(s.sizes, ref.sizes))
