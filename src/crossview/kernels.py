"""The density-expansion loop and the memory-blend kernel.

``expand_clusters`` is the queue-based flood fill over a density
clustering's epsilon graph; in training it runs once per view and epoch
over that view's own rows. It is a plain Python loop over lists.
``blend_chain`` applies the sequential per-query memory blends, once per
minibatch and bank, as one numpy step per occurrence layer of the batch's
ids.
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
    the earliest such batch position, with the earlier updates already
    applied.

    The t-th occurrences of the ids form layer t. Ids within a layer are
    distinct, so a layer is one gather-blend-scatter, and running the
    layers in order gives every row its updates in batch order, with the
    same arithmetic per row as one update at a time.
    """
    ids = np.asarray(ids, dtype=np.int64)
    queries = np.asarray(queries)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    occurrence = np.empty_like(ids)
    # a run of equal sorted ids starts where searchsorted puts its id
    occurrence[order] = np.arange(ids.size) - np.searchsorted(sorted_ids, sorted_ids)
    # batch positions grouped by layer, ascending within each layer
    by_layer = np.argsort(occurrence, kind="stable")
    layers = np.split(by_layer, np.cumsum(np.bincount(occurrence))[:-1])
    saved = bank[ids]
    stop = _blend_layers(bank, ids, queries, layers, w_old, w_new, renorm)
    if stop < ids.size:
        # a later layer may collapse an earlier batch position: rewind and
        # apply only what comes before the earliest collapse
        bank[ids] = saved
        _blend_layers(bank, ids, queries, [pos[pos < stop] for pos in layers], w_old, w_new, renorm)
        raise DegenerateInputError(
            f"memory row {ids[stop]} collapsed to zero norm at batch position {stop}"
        )


def _blend_layers(bank, ids, queries, layers, w_old, w_new, renorm) -> int:
    """Blend each layer of batch positions in one step; return the earliest
    position whose row reached zero norm, or ids.size when none did."""
    stop = ids.size
    for pos in layers:
        k = ids[pos]
        rows = w_old * bank[k] + w_new * queries[pos]
        if renorm:
            nrm = np.sqrt(np.vecdot(rows, rows))
            zero = nrm == 0.0
            if zero.any():
                stop = min(stop, int(pos[zero][0]))
                nrm[zero] = 1.0  # the caller rewinds; keep the row finite
            rows /= nrm[:, None]
        bank[k] = rows
    return stop


# perfbench/worker.py reads these two names.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"
