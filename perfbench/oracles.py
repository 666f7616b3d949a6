"""Reference computations made apart from the program, and the comparisons
the benchmark runs on the program's outputs.

Nothing here imports crossview. Similarities, rankings, density clusters,
Recall@K and average precision are recomputed from embeddings with their
own loops, so a fault in the program's vectorised code cannot cancel out in
the check. Each ``compare_*`` function returns a list of problems, empty
when the program agrees.
"""

import numpy as np

AP_TOLERANCE = 1e-12  # the program averages per-query AP in another order
KS = (1, 5, 10)


def unit_rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt((x * x).sum(axis=1))[:, None]


def ranking(query, gallery_unit) -> np.ndarray:
    """Gallery indices best first: by cosine similarity, then lower index.

    Each similarity is an elementwise product summed along one row, so
    identical gallery rows tie exactly and fall back to index order.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    q = q / np.sqrt((q * q).sum())
    sims = (gallery_unit * q).sum(axis=1)
    return np.lexsort((np.arange(sims.size), -sims))


def retrieval_scores(query_emb, gallery_emb, query_gt, gallery_gt) -> dict:
    """Recall@1/5/10 and mean average precision of one direction."""
    gallery = unit_rows(gallery_emb)
    gallery_gt = np.asarray(gallery_gt)
    hits = dict.fromkeys(KS, 0)
    ap_sum = 0.0
    n = len(query_emb)
    for i in range(n):
        relevant = gallery_gt[ranking(query_emb[i], gallery)] == query_gt[i]
        positions = np.flatnonzero(relevant)
        if positions.size == 0:
            raise ValueError(f"query {i} has no relevant gallery item")
        for k in KS:
            hits[k] += int(positions[0] < k)
        precision = 0.0
        for found, pos in enumerate(positions, 1):
            precision += found / (pos + 1)
        ap_sum += precision / positions.size
    scores = {f"r{k}": hits[k] / n for k in KS}
    scores["ap"] = ap_sum / n
    return scores


def evaluation(emb_d, emb_s, gt_d, gt_s) -> dict:
    """Both directions, keyed like the program's evaluation records."""
    out = {}
    for prefix, q, g, qt, gt in (("ds", emb_d, emb_s, gt_d, gt_s), ("sd", emb_s, emb_d, gt_s, gt_d)):
        for key, value in retrieval_scores(q, g, qt, gt).items():
            out[f"{key}_{prefix}"] = value
    return out


def density_labels(features, eps: float, min_pts: int) -> np.ndarray:
    """DBSCAN under cosine distance by union-find over the eps-graph.

    A point is core when at least min_pts points (itself included) lie
    within eps. Clusters are numbered in order of their lowest-indexed core
    point; a border point joins the cluster of its lowest-indexed core
    neighbour; everything else is -1.
    """
    x = unit_rows(features)
    n = x.shape[0]
    neighbours = [np.flatnonzero(1.0 - x @ x[i] <= eps) for i in range(n)]
    core = np.array([nb.size >= min_pts for nb in neighbours], dtype=bool)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in np.flatnonzero(core):
        for j in neighbours[i]:
            if core[j]:
                a, b = find(i), find(int(j))
                if a != b:
                    parent[max(a, b)] = min(a, b)
    labels = np.full(n, -1, dtype=np.int64)
    ids = {}
    for i in np.flatnonzero(core):
        root = find(i)
        labels[i] = ids.setdefault(root, len(ids))
    for i in np.flatnonzero(~core):
        cores = neighbours[i][core[neighbours[i]]]
        if cores.size:
            labels[i] = labels[cores.min()]
    return labels


def replicated_density_labels(features, factor: int, eps: float, min_pts: int) -> np.ndarray:
    """Labels of each original row when every row is clustered ``factor``
    times over, as the trainer does for the single-instance view."""
    rows = np.asarray(features, dtype=np.float64)
    labels = density_labels(np.repeat(rows, factor, axis=0), eps, min_pts)
    first = labels[::factor]
    present = sorted(set(first[first >= 0].tolist()))
    renumber = {old: new for new, old in enumerate(present)}
    return np.array([renumber.get(int(v), -1) for v in first], dtype=np.int64)


def compare_labels(expected, actual, what: str) -> list[str]:
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    if expected.shape != actual.shape:
        return [f"{what}: {actual.shape[0]} labels, expected {expected.shape[0]}"]
    wrong = np.flatnonzero(expected != actual)
    if wrong.size:
        i = int(wrong[0])
        return [
            f"{what}: {wrong.size} labels differ from the oracle, first at row {i} "
            f"({int(actual[i])} vs {int(expected[i])})"
        ]
    return []


def compare_scores(expected: dict, actual: dict, what: str) -> list[str]:
    problems = []
    for key, value in expected.items():
        got = actual.get(key)
        tolerance = AP_TOLERANCE if key.startswith("ap") else 0.0
        if got is None or abs(got - value) > tolerance:
            problems.append(f"{what}: {key} is {got}, oracle gives {value}")
    return problems


def compare_top1(gallery_emb, query_emb, top1, what: str) -> list[str]:
    """Each query's reported best gallery item against the oracle ranking."""
    gallery = unit_rows(gallery_emb)
    wrong = [i for i in range(len(top1)) if ranking(query_emb[i], gallery)[0] != top1[i]]
    if wrong:
        return [f"{what}: {len(wrong)} of {len(top1)} top-1 answers differ, first query {wrong[0]}"]
    return []


def compare_count(value: int, target: int, share: float, what: str) -> list[str]:
    if abs(value - target) > share * target:
        return [f"{what}: {value} is not within {share:.0%} of {target}"]
    return []
