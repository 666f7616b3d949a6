"""The density-expansion loop and the memory-blend kernel.

``expand_clusters`` is the queue-based flood fill over a density
clustering's epsilon graph; in training it runs once per view and epoch
over that view's own rows. It is a plain Python loop over lists.
``blend_chain`` applies the sequential per-query memory blends, once per
minibatch and bank: it gathers the batch's bank rows once into a block,
blends a prefix of that block in place per occurrence layer of the
batch's ids, and scatters the block back once.
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

    The t-th updates of the distinct ids form layer t. The ids are ordered
    by update count, descending, so each layer is a prefix of them; their
    bank rows are gathered once into a block, each layer blends a prefix of
    that block in place, and the block is scattered back once. Every row
    gets the same arithmetic, in the same order, as one update at a time.
    """
    ids = np.asarray(ids, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.float64)
    stop = _blend_layers(bank, ids, queries, w_old, w_new, renorm)
    if stop < ids.size:
        # a later layer may collapse an earlier batch position: apply only
        # what comes before the earliest collapse, where none collapses
        _blend_layers(bank, ids[:stop], queries[:stop], w_old, w_new, renorm)
        raise DegenerateInputError(
            f"memory row {ids[stop]} collapsed to zero norm at batch position {stop}"
        )


def _blend_layers(bank, ids, queries, w_old, w_new, renorm) -> int:
    """Blend every layer and return ids.size, or, when some row reached
    zero norm, return the earliest such batch position and leave the bank
    untouched."""
    n = ids.size
    if n == 0:
        return n
    order = np.argsort(ids, kind="stable")  # batch positions grouped by id, ascending within
    sorted_ids = ids[order]
    edges = np.ones(n + 1, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=edges[1:-1])
    edges = np.flatnonzero(edges)
    counts = np.diff(edges)  # updates per distinct id
    by_count = np.argsort(-counts, kind="stable")
    starts, counts = edges[by_count], counts[by_count]
    depth = np.arange(counts[0])
    # table[t, j] is the batch position of the t-th update of row j; past
    # a row's count it is a clipped stand-in that no layer reads
    table = order[np.minimum(starts + depth[:, None], n - 1)]
    pulls = queries[table]
    pulls *= w_new
    keys = sorted_ids[starts]
    rows = bank[keys]
    stop = n
    # layer t blends the rows updated more than t times, a prefix of keys
    widths = np.count_nonzero(counts > depth[:, None], axis=1)
    for t, width in enumerate(widths.tolist()):
        block = rows[:width]
        block *= w_old
        block += pulls[t, :width]
        if renorm:
            nrm = np.sqrt(np.vecdot(block, block))
            if not nrm.all():
                zero = nrm == 0.0
                stop = min(stop, int(table[t, :width][zero].min()))
                nrm[zero] = 1.0  # the rows are dropped; keep them finite
            block /= nrm[:, None]
    if stop == n:
        bank[keys] = rows
    return stop


# perfbench/worker.py reads these two names.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"
