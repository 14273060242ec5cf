"""The feature-based ranking engine with top-k pruning.

This is the compute plane's counterpart of
:meth:`repro.core.ranking.NaiveRanker.rank`.  The two paths are
**bit-identical** by construction: every component score is computed
with the same expressions in the same iteration order over precompiled
inputs, and :func:`pool_scorer` — the one definition of the
formula, which the scale plane calls too — normalises by the same pool
maxima and folds totals through the shared :mod:`repro.scoring.aggregate`
helpers before the same ``round(total, 6)``.

What changes is *when* work happens:

- candidate-side normalization/tokenization/log-compression is read
  from :class:`~repro.scoring.features.CandidateFeatures` (built once
  per candidate per store, amortized across a whole batch);
- manuscript-side grouping/normalization is read from a single
  :class:`~repro.scoring.query.ManuscriptQuery`;
- with ``top_k`` set under ``WEIGHTED_SUM``, the expensive
  per-publication ``recency`` loop runs only for candidates whose
  optimistic upper bound clears the current k-th best exact score.

The pruning bound: for candidate *c*, every publication's topic match is
at most ``max_weight`` (the largest expansion weight), so

    recency(c)  <=  max_weight * sum(decay)  =  max_weight * decay_mass

— inflated by one part in 10^9 to absorb float summation-order slack.
Since floating-point ``+`` and ``*`` are monotone and the recency weight
is non-negative, substituting the (normalized, capped) bound for the
exact recency gives an optimistic total ``opt(c) >= total(c)`` *in
floating point*, and ``round`` is monotone, so a candidate whose rounded
optimistic total falls strictly below the k-th best rounded exact total
can never enter the top-k — ties keep evaluating, so the
``(-total, candidate_id)`` tie-break stays exact.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Mapping, Sequence

from repro.core.config import AggregationMethod, ImpactMetric, PipelineConfig
from repro.core.models import (
    Candidate,
    Manuscript,
    ScoreBreakdown,
    ScoredCandidate,
)
from repro.obs import get_obs
from repro.obs.ledger import charge_pruning
from repro.ontology.expansion import ExpandedKeyword
from repro.scoring.aggregate import owa_aggregate, weighted_total
from repro.scoring.features import FeatureStore, ScoringContext
from repro.scoring.query import ManuscriptQuery
from repro.scoring.topk import select_top_k

#: Relative + absolute inflation of the recency upper bound, covering
#: the last-ULP slack between ``sum(match * decay)`` and
#: ``max_weight * sum(decay)`` computed in different association orders.
_UB_INFLATION = 1.0 + 1e-9
_UB_EPSILON = 1e-12


def topic_coverage(
    interest_set: frozenset[str],
    matched_keywords: Mapping[str, float],
    query: ManuscriptQuery,
) -> float:
    """Raw topic coverage — ``NaiveRanker._topic_coverage`` on a
    candidate's normalized interests and extraction-matched keywords."""
    if not query.seed_expansions:
        return 0.0
    total = 0.0
    for expansions in query.seed_expansions.values():
        best = 0.0
        for keyword, score in expansions.items():
            matched = keyword in matched_keywords or keyword in interest_set
            if matched and score > best:
                best = score
        total += best
    return total / len(query.seed_expansions)


def scientific_impact(
    log_citations: float, h_index: float, config: PipelineConfig
) -> float:
    """Raw impact — log-compressed citations or the h-index, per config."""
    if config.impact_metric is ImpactMetric.CITATIONS:
        return log_citations
    return h_index


def recency(
    pubs: Iterable[tuple[tuple[str, ...] | None, frozenset[str] | None, float]],
    query: ManuscriptQuery,
) -> float:
    """Raw recency — ``NaiveRanker._recency`` on precompiled
    ``(kw_norms, title_tokens, decay)`` publication rows, in order."""
    weights = query.recency_weights
    if not weights:
        return 0.0
    total = 0.0
    for kw_norms, title_tokens, decay in pubs:
        if kw_norms is not None:
            best = 0.0
            for keyword in kw_norms:
                score = weights.get(keyword, 0.0)
                if score > best:
                    best = score
            match = best
        else:
            best = 0.0
            for _, score, tokens in query.title_terms:
                if tokens and tokens <= title_tokens:
                    if score > best:
                        best = score
            match = 0.7 * best
        if match == 0.0:
            continue
        total += match * decay
    return total


def outlet_familiarity(
    venue_review_counts: Mapping[str, int],
    venue_pub_counts: Mapping[str, int],
    query: ManuscriptQuery,
) -> float:
    """Raw outlet familiarity — integer venue counts, identical logs."""
    if not query.target_venue:
        return 0.0
    reviews_for_outlet = venue_review_counts.get(query.target_venue_norm, 0)
    papers_in_outlet = venue_pub_counts.get(query.target_venue_norm, 0)
    return 0.6 * math.log1p(reviews_for_outlet) + 0.4 * math.log1p(
        papers_in_outlet
    )


#: The ranking components of §2.3 in the order every path folds them
#: (the naive ranker's raw dict order, so weighted sums agree bit-for-bit).
COMPONENTS = (
    "topic_coverage",
    "scientific_impact",
    "recency",
    "review_experience",
    "outlet_familiarity",
    "timeliness",
)


def normalize_components(
    raw: Sequence[float], maxima: Sequence[float]
) -> dict[str, float]:
    """One candidate's raw components, each divided by its pool maximum."""
    tc, imp, rec, rev, out, tml = raw
    max_tc, max_imp, max_rec, max_rev, max_out, max_tml = maxima
    # Insertion order is COMPONENTS: weighted sums fold in that order.
    return {
        "topic_coverage": tc / max_tc if max_tc > 0 else 0.0,
        "scientific_impact": imp / max_imp if max_imp > 0 else 0.0,
        "recency": rec / max_rec if max_rec > 0 else 0.0,
        "review_experience": rev / max_rev if max_rev > 0 else 0.0,
        "outlet_familiarity": out / max_out if max_out > 0 else 0.0,
        "timeliness": tml / max_tml if max_tml > 0 else 0.0,
    }


def pool_scorer(
    config: PipelineConfig, maxima: Sequence[float]
) -> Callable[[Sequence[float]], tuple[float, dict[str, float]]]:
    """The §2.3 score function of one candidate pool.

    The returned function takes one candidate's raw :data:`COMPONENTS`,
    normalises each by the pool's ``maxima``, fuses them under
    ``config.aggregation`` and ``config.weights``, and returns the total
    rounded to 6 places with the normalised components.

    This is the one definition of the ranking formula outside the naive
    transcription it is tested against: :func:`rank_with_plane` and the
    scale plane (:mod:`repro.scale.plane`) both score through it.
    """
    weights = config.weights.normalized()
    owa = config.aggregation is AggregationMethod.OWA

    def score(raw: Sequence[float]) -> tuple[float, dict[str, float]]:
        components = normalize_components(raw, maxima)
        if owa:
            total = owa_aggregate(list(components.values()), config.owa_weights)
        else:
            total = weighted_total(components, weights)
        return round(total, 6), components

    return score


def rank_with_plane(
    manuscript: Manuscript,
    candidates: list[Candidate],
    expanded: list[ExpandedKeyword],
    config: PipelineConfig,
    store: FeatureStore,
    ctx: ScoringContext | None = None,
) -> list[ScoredCandidate]:
    """Rank ``candidates`` through the compute plane.

    Returns the full ranking when ``config.top_k`` is ``None``, else the
    exact first ``top_k`` entries of that ranking.  Pass a long-lived
    ``ctx`` to hit the store's context identity fast path.
    """
    if not candidates:
        return []
    obs = get_obs()
    n = len(candidates)
    k = config.top_k
    with obs.span("scoring.rank", candidates=n, top_k="all" if k is None else k):
        if ctx is None:
            ctx = ScoringContext.from_config(config)
        query = ManuscriptQuery.compile(
            manuscript.keywords, expanded, manuscript.target_venue
        )
        feats = store.features_for_many(candidates, ctx)

        raw_tc = [
            topic_coverage(f.interest_set, c.matched_keywords, query)
            for f, c in zip(feats, candidates)
        ]
        raw_imp = [scientific_impact(f.log_citations, f.h_index, config) for f in feats]
        raw_rev = [f.review_experience for f in feats]
        raw_out = [
            outlet_familiarity(f.venue_review_counts, f.venue_pub_counts, query)
            for f in feats
        ]
        raw_tml = [f.timeliness for f in feats]
        max_tc = max(raw_tc)
        max_imp = max(raw_imp)
        max_rev = max(raw_rev)
        max_out = max(raw_out)
        max_tml = max(raw_tml)

        prune = (
            k is not None
            and k < n
            and config.aggregation is AggregationMethod.WEIGHTED_SUM
            and query.max_weight > 0.0
        )

        # --- recency: exact pool maximum, lazily for the rest ----------
        exact_rec: list[float | None] = [None] * n

        def exact_recency(i: int) -> float:
            value = exact_rec[i]
            if value is None:
                value = exact_rec[i] = recency(feats[i].recency_pubs, query)
            return value

        if query.max_weight <= 0.0:
            # Every topic match is 0 (best never beats 0.0), exactly as
            # the naive loop concludes publication by publication.
            exact_rec = [0.0] * n
            ubs: list[float] = []
            max_rec = 0.0
        elif prune:
            ubs = [
                query.max_weight * f.decay_mass * _UB_INFLATION + _UB_EPSILON
                for f in feats
            ]
            # Descending upper bounds: once the next bound cannot beat
            # the best exact value seen, the pool maximum is settled.
            # Equal bounds order by candidate id, not list position, so
            # the walk is canonical for any candidate arrival order.
            best = 0.0
            for i in sorted(
                range(n), key=lambda i: (-ubs[i], candidates[i].candidate_id)
            ):
                if ubs[i] <= best:
                    break
                value = exact_recency(i)
                if value > best:
                    best = value
            max_rec = best
        else:
            ubs = []
            for i in range(n):
                exact_rec[i] = recency(feats[i].recency_pubs, query)
            max_rec = max(exact_rec)

        maxima = (max_tc, max_imp, max_rec, max_rev, max_out, max_tml)
        score = pool_scorer(config, maxima)

        def raw_row(i: int, recency_value: float) -> tuple[float, ...]:
            return (
                raw_tc[i],
                raw_imp[i],
                recency_value,
                raw_rev[i],
                raw_out[i],
                raw_tml[i],
            )

        def scored_candidate(i: int) -> ScoredCandidate:
            total, components = score(raw_row(i, exact_recency(i)))
            return ScoredCandidate(
                candidate=candidates[i],
                total_score=total,
                breakdown=ScoreBreakdown(**components),
            )

        if not prune:
            result = select_top_k([scored_candidate(i) for i in range(n)], k)
        else:
            # Optimistic totals: exact where recency is known, the
            # capped bound otherwise.
            weights = config.weights.normalized()
            opt = [0.0] * n
            for i in range(n):
                if exact_rec[i] is not None:
                    bound = exact_rec[i]
                else:
                    bound = ubs[i] if ubs[i] < max_rec else max_rec
                opt[i] = weighted_total(
                    normalize_components(raw_row(i, bound), maxima), weights
                )
            heap: list[float] = []
            evaluated: list[ScoredCandidate] = []
            for i in sorted(
                range(n), key=lambda i: (-opt[i], candidates[i].candidate_id)
            ):
                if len(heap) == k and round(opt[i], 6) < heap[0]:
                    break
                scored = scored_candidate(i)
                evaluated.append(scored)
                if len(heap) < k:
                    heapq.heappush(heap, scored.total_score)
                elif scored.total_score > heap[0]:
                    heapq.heapreplace(heap, scored.total_score)
            result = select_top_k(evaluated, k)

        pruned = sum(1 for value in exact_rec if value is None)
        obs.inc("scoring_candidates_ranked_total", value=float(n))
        if pruned:
            obs.inc("scoring_recency_pruned_total", value=float(pruned))
        obs.gauge("scoring_prune_rate", round(pruned / n, 4))
        charge_pruning(n, pruned)
        return result
