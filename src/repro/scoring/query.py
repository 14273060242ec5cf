"""The compiled per-manuscript query object.

The naive ranker re-derives the same manuscript-side structures inside
every component method, for every candidate: the seed → expansion
grouping, the normalized expansion-weight map, the tokenized keyword
sets for title matching, and the normalized target venue.
:class:`ManuscriptQuery` compiles them exactly once per manuscript, with
the exact same construction the naive path uses, so every downstream
float is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.text.normalize import normalize_keyword

if TYPE_CHECKING:
    from repro.ontology.expansion import ExpandedKeyword


def group_expansions_by_seed(
    seeds: tuple[str, ...], expanded: list[ExpandedKeyword]
) -> dict[str, dict[str, float]]:
    """``seed -> {normalized expanded keyword: sc}``, seeds included."""
    grouped: dict[str, dict[str, float]] = {
        seed: {normalize_keyword(seed): 1.0} for seed in seeds
    }
    for expansion in expanded:
        bucket = grouped.setdefault(expansion.seed, {})
        keyword = normalize_keyword(expansion.keyword)
        bucket[keyword] = max(bucket.get(keyword, 0.0), expansion.score)
    return grouped


@dataclass(frozen=True)
class ManuscriptQuery:
    """Everything ranking needs from one manuscript, precompiled.

    Attributes
    ----------
    seed_expansions:
        ``seed -> {normalized keyword: score}`` — the topic-coverage
        grouping, built by :func:`group_expansions_by_seed`.
    recency_weights:
        ``normalized expanded keyword -> score`` in expansion order with
        the naive path's last-occurrence-wins semantics (a plain dict
        comprehension over the expansion list).
    title_terms:
        ``(keyword, score, frozenset(keyword.split(" ")))`` triples in
        ``recency_weights`` iteration order, for the title-token subset
        match of keyword-less publications.
    max_weight:
        ``max(recency_weights.values())`` (0.0 when empty) — the per-
        publication topic-match upper bound used by top-k pruning.
    target_venue:
        The manuscript's raw target venue (the naive guard tests its
        truthiness before normalizing).
    target_venue_norm:
        ``normalize_keyword(target_venue)``, or ``""`` when there is no
        target venue.
    """

    seed_expansions: dict[str, dict[str, float]]
    recency_weights: dict[str, float]
    title_terms: tuple[tuple[str, float, frozenset[str]], ...]
    max_weight: float
    target_venue: str
    target_venue_norm: str

    @classmethod
    def compile(
        cls,
        keywords: tuple[str, ...],
        expanded: list[ExpandedKeyword],
        target_venue: str = "",
    ) -> "ManuscriptQuery":
        """Compile a manuscript's seed ``keywords``, their expansions and
        its ``target_venue`` (``""`` when there is none)."""
        seed_expansions = group_expansions_by_seed(keywords, expanded)
        recency_weights = {
            normalize_keyword(e.keyword): e.score for e in expanded
        }
        title_terms = tuple(
            (keyword, score, frozenset(keyword.split(" ")))
            for keyword, score in recency_weights.items()
        )
        max_weight = max(recency_weights.values()) if recency_weights else 0.0
        return cls(
            seed_expansions=seed_expansions,
            recency_weights=recency_weights,
            title_terms=title_terms,
            max_weight=max_weight,
            target_venue=target_venue,
            target_venue_norm=(
                normalize_keyword(target_venue) if target_venue else ""
            ),
        )
