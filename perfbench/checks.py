"""Output checks computed apart from the program under test.

Nothing here imports ``repro``: every reference answer is recomputed from the
stored matrix with plain NumPy, so a fault in the program's own scoring,
ranking or evaluation code cannot hide itself.
"""

from __future__ import annotations

import numpy as np

#: Scores are float32 on the wire; a float64 recomputation agrees to this.
SCORE_ATOL = 1e-5


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing the mean of their ranks."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # Start index of every run of equal values in the sorted order.
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], sorted_vals.size]
    mean_rank = (starts + ends + 1) / 2.0          # mean of ranks start+1..end
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(mean_rank, ends - starts)
    return ranks


def mann_whitney_auc(positive: np.ndarray, negative: np.ndarray) -> float:
    """AUCROC as the Mann-Whitney U statistic over ``n_pos * n_neg`` pairs.

    A positive scored above a negative counts 1, a tie counts 1/2.
    """
    positive = np.asarray(positive, dtype=np.float64).ravel()
    negative = np.asarray(negative, dtype=np.float64).ravel()
    if positive.size == 0 or negative.size == 0:
        raise ValueError("AUC needs at least one positive and one negative score")
    ranks = average_ranks(np.concatenate([positive, negative]))
    n_pos = positive.size
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * negative.size))


def dot_scores(matrix: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``u . v`` for every row ``(u, v)`` of ``pairs``, in float64."""
    m = np.asarray(matrix, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    return np.einsum("ij,ij->i", m[pairs[:, 0]], m[pairs[:, 1]])


def check_matrix(matrix: np.ndarray, num_vertices: int, dim: int) -> list[str]:
    """Problems with a stored embedding: wrong shape or non-finite entries."""
    problems = []
    if matrix.shape != (num_vertices, dim):
        problems.append(f"stored matrix has shape {matrix.shape}, "
                        f"expected ({num_vertices}, {dim})")
    elif not np.isfinite(matrix).all():
        bad = int((~np.isfinite(matrix)).sum())
        problems.append(f"stored matrix has {bad} non-finite entries")
    return problems


def cosine_scores(matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Cosine similarity of every query row against every matrix row (float64).

    A zero-norm row or query scores 0 against everything.
    """
    m = np.asarray(matrix, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    mn = np.linalg.norm(m, axis=1)
    qn = np.linalg.norm(q, axis=1)
    mn[mn == 0] = 1.0
    qn[qn == 0] = 1.0
    return (q @ m.T) / qn[:, None] / mn[None, :]


def check_topk(scores: np.ndarray, ids: "list[int]", got_scores: "list[float]",
               k: int, *, exclude: "int | None" = None,
               atol: float = SCORE_ATOL) -> "str | None":
    """Compare one served top-k answer with the brute-force ``scores`` row.

    ``scores`` is the reference score of every candidate row; ``exclude``
    drops one id (the query vertex itself) from the candidates.  The answer
    passes when it has ``k`` distinct ids, each reported score is within
    ``atol`` of that id's reference score, the scores do not increase, and
    every id scores at least the true k-th best minus ``atol`` — so ids may
    differ from the reference only among candidates tied within tolerance.
    Returns ``None`` on a pass, else a one-line description.
    """
    ref = np.asarray(scores, dtype=np.float64).copy()
    if exclude is not None:
        ref[exclude] = -np.inf
    ids = [int(i) for i in ids]
    got = np.asarray(got_scores, dtype=np.float64)
    want = min(k, int(np.isfinite(ref).sum()))
    if len(ids) != want or got.shape != (want,):
        return f"expected {want} results, got {len(ids)} ids / {got.size} scores"
    if len(set(ids)) != want:
        return f"duplicate ids in {ids}"
    if any(i < 0 or i >= ref.size for i in ids):
        return f"id out of range in {ids}"
    if exclude is not None and exclude in ids:
        return f"query vertex {exclude} returned as its own neighbour"
    ref_at = ref[ids]
    worst = np.max(np.abs(ref_at - got))
    if not worst <= atol:
        return f"served score off by {worst:.3g} from the recomputed one"
    if np.any(np.diff(got) > atol):
        return "served scores are not in descending order"
    kth = np.partition(ref, ref.size - want)[ref.size - want]
    if np.min(ref_at) < kth - atol:
        return (f"id scoring {np.min(ref_at):.6f} served although the "
                f"k-th best scores {kth:.6f}")
    return None
