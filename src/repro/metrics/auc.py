"""ROC-AUC implementations (§4.6).

The DLRM eval metric is AUC over 89M predictions.  The paper replaced
60-second library calls with a 2-second custom implementation built on
multithreaded sorting and loop fusion; the numpy equivalent here is
:func:`auc_sorted` — one sort plus fused vector ops.  :func:`auc_naive` is
the O(n^2) pairwise definition (the correctness oracle).
"""

from __future__ import annotations

import numpy as np


def _validate(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    pos = int(labels.sum())
    if pos == 0 or pos == len(labels):
        raise ValueError("AUC undefined with a single class")
    return scores, labels.astype(bool)


def auc_naive(scores: np.ndarray, labels: np.ndarray) -> float:
    """The pairwise definition: P(score_pos > score_neg) + 0.5 ties.

    Quadratic — usable only on small arrays; the tests use it as ground
    truth for :func:`auc_sorted`.
    """
    scores, labels = _validate(scores, labels)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(wins / (len(pos) * len(neg)))


def auc_sorted(scores: np.ndarray, labels: np.ndarray) -> float:
    """Sort-based AUC (Mann-Whitney U), exact including ties.

    One argsort + fused vector arithmetic — the numpy analogue of the
    paper's multithreaded-sort C++ implementation.
    """
    scores, labels = _validate(scores, labels)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Midranks (average rank within tied groups), fully vectorized: assign
    # each element its tie-group id, then the group's mean 1-based rank.
    n = len(scores)
    group = np.concatenate([[0], np.cumsum(np.diff(sorted_scores) != 0)])
    counts = np.bincount(group)
    ends = np.cumsum(counts)          # 1-based last rank of each group
    starts = ends - counts + 1        # 1-based first rank of each group
    midranks = 0.5 * (starts + ends)
    ranks = midranks[group]
    n_pos = int(sorted_labels.sum())
    n_neg = n - n_pos
    rank_sum_pos = float(ranks[sorted_labels].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def synthetic_pctr(
    rng: np.random.Generator, n: int, auc_target: float = 0.80
) -> tuple[np.ndarray, np.ndarray]:
    """A synthetic pCTR score/label set with roughly the requested AUC.

    Positives draw scores from a shifted normal; the shift controls the
    separability (and therefore the AUC).
    """
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not 0.5 < auc_target < 1.0:
        raise ValueError("auc_target must be in (0.5, 1)")
    from scipy.special import ndtri  # inverse normal CDF

    shift = float(ndtri(auc_target)) * np.sqrt(2.0)
    labels = (rng.random(n) < 0.25).astype(np.int8)  # ~25% CTR-ish positives
    # Guarantee both classes exist.
    labels[0], labels[1] = 0, 1
    scores = rng.standard_normal(n) + shift * labels
    return scores, labels
