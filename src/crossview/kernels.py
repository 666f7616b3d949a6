"""The two inner loops kept out of BLAS.

``expand_clusters`` is the queue-based flood fill over a density
clustering's epsilon graph; in training it runs once per view and epoch
over that view's own rows. ``blend_chain`` applies the sequential
per-query memory blends, once per minibatch and bank. Both are plain
Python loops over lists and rows.
"""

import numpy as np

from .errors import DegenerateInputError


def expand_clusters(indptr, indices, core) -> np.ndarray:
    """Label connected components of core points; attach borders; -1 noise.

    indptr/indices: CSR adjacency of the symmetric eps-neighborhood graph,
    neighbor lists sorted ascending. Cluster ids are assigned in order of
    the first core point encountered; border points take the cluster of
    their lowest-indexed core neighbor.
    """
    indptr = np.asarray(indptr).tolist()
    indices = np.asarray(indices).tolist()
    core = np.asarray(core).tolist()
    n = len(core)
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] >= 0:
            continue
        labels[i] = cluster
        queue = [i]
        for p in queue:  # grows while it is walked: breadth-first order
            for nb in indices[indptr[p] : indptr[p + 1]]:
                if core[nb] and labels[nb] < 0:
                    labels[nb] = cluster
                    queue.append(nb)
        cluster += 1
    for i in range(n):
        if core[i]:
            continue
        for nb in indices[indptr[i] : indptr[i + 1]]:
            if core[nb]:
                labels[i] = labels[nb]
                break
    return np.array(labels, dtype=np.int64)


def blend_chain(bank, ids, queries, w_old: float, w_new: float, renorm: bool) -> None:
    """Apply bank[id] <- w_old*bank[id] + w_new*query in place, in batch order.

    With ``renorm`` each blended row is scaled to unit norm; a row that
    collapses to zero norm raises DegenerateInputError naming the row and
    the batch position, with the earlier updates already applied.
    """
    for t, (k, q) in enumerate(zip(np.asarray(ids).tolist(), queries)):
        row = w_old * bank[k] + w_new * q
        if renorm:
            nrm = np.sqrt(row @ row)
            if nrm == 0.0:
                raise DegenerateInputError(
                    f"memory row {k} collapsed to zero norm at batch position {t}"
                )
            row = row / nrm
        bank[k] = row


# perfbench/worker.py reads these two names.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"
