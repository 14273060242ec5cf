"""JSON (de)serialization between API payloads and domain objects."""

from __future__ import annotations

from repro.api.router import ApiError
from repro.core.config import (
    AffiliationCoiLevel,
    AggregationMethod,
    CoiConfig,
    ExpertiseConstraints,
    FilterConfig,
    ImpactMetric,
    PipelineConfig,
    RankingWeights,
)
from repro.core.models import (
    Manuscript,
    ManuscriptAuthor,
    RecommendationResult,
    ScoredCandidate,
)


def manuscript_from_payload(payload: dict) -> Manuscript:
    """Parse the submission-form payload (paper Fig. 3) into a Manuscript.

    Raises a 400 :class:`ApiError` on structural problems so the router
    can surface a clean validation message.
    """
    try:
        authors = tuple(
            ManuscriptAuthor(
                name=str(author["name"]),
                affiliation=str(author.get("affiliation", "")),
                country=str(author.get("country", "")),
            )
            for author in payload["authors"]
        )
        manuscript = Manuscript(
            title=str(payload.get("title", "")),
            keywords=tuple(str(k) for k in payload["keywords"]),
            authors=authors,
            target_venue=str(payload.get("target_venue", "")),
            abstract=str(payload.get("abstract", "")),
        )
    except KeyError as exc:
        raise ApiError(400, f"manuscript payload missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid manuscript payload: {exc}") from exc
    return manuscript


def config_from_payload(payload: dict) -> PipelineConfig:
    """Build a :class:`PipelineConfig` from optional payload overrides.

    Recognized keys mirror the demo UI's form controls: ``weights`` (a
    component → weight map), ``impact_metric``, ``min_keyword_score``,
    ``coi`` (``check_coauthorship``, ``affiliation_level``,
    ``lookback_years``), ``constraints`` (the six range bounds),
    ``pc_members``, ``max_candidates``, ``workers`` (extraction
    fan-out; output is identical at any value), ``executor_backend``
    (one of :data:`repro.concurrency.EXECUTOR_BACKENDS` — validated
    here against that same registry, so the API can never accept a
    backend ``create_executor`` would reject), plus ``warm_cache`` /
    ``warm_cache_ttl`` / ``warm_cache_capacity`` (the deployment-shared
    warm-path retrieval plane; rankings are identical warm or cold),
    ``top_k`` (rank only the exact best k) and ``scoring_plane``
    (the :mod:`repro.scoring` compute plane; on by default,
    bit-identical to the naive path).
    """
    try:
        weights = RankingWeights(**payload.get("weights", {}))
        coi_payload = payload.get("coi", {})
        coi = CoiConfig(
            check_coauthorship=bool(coi_payload.get("check_coauthorship", True)),
            coauthorship_lookback_years=coi_payload.get("lookback_years"),
            affiliation_level=AffiliationCoiLevel(
                coi_payload.get("affiliation_level", "university")
            ),
        )
        constraints = ExpertiseConstraints(**payload.get("constraints", {}))
        filters = FilterConfig(
            coi=coi,
            min_keyword_score=float(payload.get("min_keyword_score", 0.5)),
            constraints=constraints,
            pc_members=tuple(payload.get("pc_members", ())),
        )
        owa_weights = payload.get("owa_weights")
        return PipelineConfig(
            filters=filters,
            weights=weights,
            aggregation=AggregationMethod(
                payload.get("aggregation", "weighted_sum")
            ),
            owa_weights=tuple(owa_weights) if owa_weights is not None else None,
            impact_metric=ImpactMetric(payload.get("impact_metric", "h_index")),
            max_candidates=int(payload.get("max_candidates", 50)),
            workers=int(payload.get("workers", 1)),
            executor_backend=str(payload.get("executor_backend", "auto")),
            warm_cache=bool(payload.get("warm_cache", False)),
            warm_cache_ttl=payload.get("warm_cache_ttl"),
            warm_cache_capacity=int(payload.get("warm_cache_capacity", 8192)),
            top_k=(
                int(payload["top_k"]) if payload.get("top_k") is not None else None
            ),
            scoring_plane=bool(payload.get("scoring_plane", True)),
        )
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"invalid config payload: {exc}") from exc


def slo_report_to_payload(engine) -> dict:
    """The full SLO report for one deployment's engine.

    Shared by ``GET /api/v1/slo`` and the CLI's ``slo report`` so both
    surfaces render the exact same structure: the overall verdict plus
    every spec's status (good-ratio, budget consumption, per-tier burn
    rates and firing state), sorted by name.
    """
    return {
        "verdict": engine.verdict(),
        "slos": [status.to_dict() for status in engine.report()],
    }


def scored_candidate_to_payload(scored: ScoredCandidate) -> dict:
    """One row of the Fig. 5 result table, with the score breakdown."""
    candidate = scored.candidate
    return {
        "candidate_id": candidate.candidate_id,
        "name": candidate.name,
        "total_score": scored.total_score,
        "breakdown": scored.breakdown.as_dict(),
        "interests": list(candidate.interests()),
        "citations": candidate.profile.metrics.citations,
        "h_index": candidate.profile.metrics.h_index,
        "review_count": candidate.review_count,
        "matched_keywords": dict(candidate.matched_keywords),
    }


def result_to_payload(result: RecommendationResult, top_k: int | None = None) -> dict:
    """The full recommendation response."""
    ranked = result.ranked if top_k is None else result.top(top_k)
    return {
        "manuscript": {
            "title": result.manuscript.title,
            "keywords": list(result.manuscript.keywords),
            "target_venue": result.manuscript.target_venue,
        },
        "verified_authors": [
            {
                "name": author.submitted.name,
                "canonical_name": author.profile.canonical_name,
                "ambiguous": author.ambiguous,
                "matches_considered": len(author.candidates_considered),
            }
            for author in result.verified_authors
        ],
        "expanded_keywords": [
            {"keyword": e.keyword, "score": e.score, "seed": e.seed}
            for e in result.expanded_keywords
        ],
        "recommendations": [scored_candidate_to_payload(s) for s in ranked],
        "rejected": [
            {"candidate_id": d.candidate_id, "reasons": list(d.reasons)}
            for d in result.rejected()
        ],
        "phases": [
            {
                "phase": report.phase,
                "wall_seconds": report.wall_seconds,
                "virtual_seconds": report.virtual_seconds,
                "requests": report.requests,
                "items_in": report.items_in,
                "items_out": report.items_out,
            }
            for report in result.phase_reports
        ],
    }
