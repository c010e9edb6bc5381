"""Reference box counter, as ``levdyn.attractor`` counted before its
occupancy grid.

Every point is floored into its cell with ``np.floor_divide`` over the
whole cloud at once, the cell is coded ``(ix0 << 32) | ix1`` and the
distinct codes are counted with ``np.unique``.  The code is a bijection
only while a side has at most 2**32 cells, which every scale
``levdyn.attractor`` accepts (MAX_CELLS) satisfies.  The tests hold
``occupied_box_counts`` to it count for count.
"""

from __future__ import annotations

import math

import numpy as np


def occupied_box_counts(points: np.ndarray, epsilons: np.ndarray) -> np.ndarray:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = hi - lo
    norm = (points - lo) / extent
    counts = np.empty(len(epsilons), dtype=np.int64)
    for k, eps in enumerate(epsilons):
        n_cells = int(math.ceil(1.0 / eps))
        ix = np.floor_divide(norm, eps).astype(np.int64)
        np.clip(ix, 0, n_cells - 1, out=ix)
        encoded = (ix[:, 0] << 32) | ix[:, 1]
        counts[k] = np.unique(encoded).size
    return counts
