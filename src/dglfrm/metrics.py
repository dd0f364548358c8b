"""Ranking metrics and overlapping community extraction."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .tensor import UsageError


class MetricError(ValueError):
    """Metric inputs are degenerate or malformed."""
    exit_code = 2


def _validate_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise MetricError(f"scores and labels differ in length: {s.shape} vs {y.shape}")
    if s.size == 0:
        raise MetricError("empty score list")
    if not np.all(np.isin(y, (0, 1))):
        raise MetricError("labels must be 0 or 1")
    y = y.astype(np.int64)
    if y.min() == y.max():
        raise MetricError("labels contain a single class; ranking metrics undefined")
    if not np.all(np.isfinite(s)):
        raise MetricError("scores contain non-finite values")
    return s, y


def _midranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of s; each run of tied values gets the mean of its ranks."""
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def auc_roc(scores, labels) -> float:
    """Exact ROC AUC via the rank-sum statistic; ties get midranks."""
    s, y = _validate_scores_labels(scores, labels)
    ranks = _midranks(s)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """Mean precision at the rank of each positive, scores sorted descending."""
    s, y = _validate_scores_labels(scores, labels)
    order = np.argsort(-s, kind="stable")
    hits = y[order]
    ranks = np.arange(1, y.size + 1, dtype=np.float64)
    precision_at_hit = np.cumsum(hits)[hits == 1] / ranks[hits == 1]
    return float(precision_at_hit.mean())


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    ap: float
    n_pos: int
    n_neg: int
    split_seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_text(self) -> str:
        """One "name value" line per field, in field order: floats to 6 places."""
        return "".join(
            f"{f.name} {getattr(self, f.name):{'.6f' if f.type == 'float' else ''}}\n" for f in fields(self)
        )


# ---------------------------------------------------------------------------
# Communities


@dataclass(frozen=True)
class CommunityAssignment:
    """Thresholded overlapping memberships, communities ordered by size.

    ``communities[j]`` lists (node, strength) pairs sorted by descending
    strength.
    """

    n_nodes: int
    threshold: float
    communities: tuple[tuple[tuple[int, float], ...], ...]
    n_unassigned: int


def communities_from_memberships(
    member_prob: np.ndarray, strength: np.ndarray, threshold: float
) -> CommunityAssignment:
    """Assign node i to community k when member_prob[i, k] >= threshold."""
    if not 0.0 < threshold <= 1.0:
        raise UsageError(f"threshold must be in (0, 1], got {threshold}")
    prob = np.asarray(member_prob, dtype=np.float64)
    strength = np.asarray(strength, dtype=np.float64)
    if prob.ndim != 2 or prob.shape != strength.shape:
        raise UsageError(
            f"membership and strength shapes differ: {prob.shape} vs {strength.shape}"
        )
    n = prob.shape[0]
    mask = prob >= threshold
    sizes = mask.sum(axis=0)
    order = np.argsort(-sizes, kind="stable")

    communities = []
    for old in order:
        members = np.flatnonzero(mask[:, old])
        # stable sort on negated strength keeps node order among exact ties
        members = members[np.argsort(-strength[members, old], kind="stable")]
        communities.append(tuple((int(i), float(strength[i, old])) for i in members))
    n_unassigned = int(np.sum(~mask.any(axis=1)))
    return CommunityAssignment(
        n_nodes=n,
        threshold=float(threshold),
        communities=tuple(communities),
        n_unassigned=n_unassigned,
    )


def extract_communities(latents, threshold: float = 0.5) -> CommunityAssignment:
    """Overlapping communities from a checkpoint's `trainer.posterior_latents`; a member's strength is |z|."""
    if latents.b_prob is None:
        raise UsageError("the latents have no membership posteriors to threshold")
    return communities_from_memberships(latents.b_prob, np.abs(latents.z.data), threshold)


def active_communities(assignment: CommunityAssignment, min_members: int = 1) -> int:
    """How many communities have at least min_members members."""
    if min_members < 1:
        raise UsageError(f"min_members must be >= 1, got {min_members}")
    return sum(1 for c in assignment.communities if len(c) >= min_members)


def format_communities(assignment: CommunityAssignment) -> str:
    """Human-readable table: one community per line, strongest members first."""
    lines = [
        f"# nodes {assignment.n_nodes}",
        f"# threshold {assignment.threshold}",
        f"# active {active_communities(assignment)}",
        f"# unassigned {assignment.n_unassigned}",
    ]
    for j, members in enumerate(assignment.communities):
        body = " ".join(f"{node}:{strength:.4f}" for node, strength in members)
        lines.append(f"community {j} size {len(members)} {body}".rstrip())
    return "\n".join(lines) + "\n"
