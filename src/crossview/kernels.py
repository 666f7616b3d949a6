"""The density-expansion loop and the memory-blend kernel.

``expand_clusters`` is the queue-based flood fill over a density
clustering's epsilon graph; in training it runs once per view and epoch
over that view's own rows. It is a plain Python loop over lists.
``blend_chain`` applies the sequential per-query memory blends, once per
minibatch and bank, along the sampler's layout of P distinct clusters
times Z queries each: it gathers the P bank rows once into a block,
blends column t of the queries into that block in place as layer t, and
scatters the block back once.
"""

import numpy as np

from .errors import DegenerateInputError
from .numcore import as_int_ids


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


def blend_chain(bank, queries, clusters, w_old: float, w_new: float, renorm: bool) -> None:
    """Apply bank[c] <- w_old*bank[c] + w_new*query in place, in batch order.

    ``clusters`` holds P distinct bank rows; ``queries`` holds Z rows for
    each of them, cluster-major as the sampler draws them: row c's updates
    are queries c*Z ... c*Z+Z-1, applied in that order. With ``renorm`` each
    blended row is scaled to unit norm; a row that collapses to zero norm
    raises DegenerateInputError naming the row and the earliest such batch
    position, with the earlier updates already applied.

    The rows are gathered once into a block; layer t blends column t of
    the (P, Z) layout into it in place, and the block is scattered back
    once. Every row gets the same arithmetic, in the same order, as one
    update at a time.
    """
    clusters = as_int_ids(clusters, "cluster id out of range [0, {bound})", None, bank.shape[0])
    queries = np.asarray(queries, dtype=np.float64)
    p, n = clusters.size, queries.shape[0]
    z, ragged = divmod(n, p) if p else (0, n)
    if ragged:
        raise ValueError(f"{n} queries do not split evenly over {p} clusters")
    ordered = np.sort(clusters)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("repeated cluster in batch")
    pulls = queries.reshape(p, z, queries.shape[1]) * w_new
    stop = _blend_layers(bank, clusters, pulls, [p] * z, w_old, renorm)
    if stop < n:
        # a later layer may collapse an earlier batch position: apply only
        # what comes before the earliest collapse, where none collapses
        widths = [min(p, -(-(stop - t) // z)) for t in range(min(z, stop))]
        _blend_layers(bank, clusters, pulls, widths, w_old, renorm)
        raise DegenerateInputError(
            f"memory row {clusters[stop // z]} collapsed to zero norm at batch position {stop}"
        )


def _blend_layers(bank, clusters, pulls, widths, w_old, renorm) -> int:
    """Blend the first widths[t] rows with column t of ``pulls`` for every
    layer t and return P*Z, or, when some row reached zero norm, return the
    earliest such batch position and leave the bank untouched."""
    p, z = pulls.shape[:2]
    rows = bank[clusters]
    stop = p * z
    for t, width in enumerate(widths):
        block = rows[:width]
        block *= w_old
        block += pulls[:width, t]
        if renorm:
            nrm = np.sqrt(np.vecdot(block, block))
            if not nrm.all():
                zero = np.flatnonzero(nrm == 0.0)
                stop = min(stop, int(zero[0]) * z + t)
                nrm[zero] = 1.0  # the rows are dropped; keep them finite
            block /= nrm[:, None]
    if stop == p * z:
        bank[clusters] = rows
    return stop


# perfbench/worker.py reads these two names.
NUMBA_ENABLED = False


def backend_name() -> str:
    return "numpy"
