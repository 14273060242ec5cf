"""Precompiled per-candidate scoring features and their cross-request store.

Every text normalization, tokenization, log-compression and set
construction the ranking and COI code performs on a *candidate* is
manuscript-independent — yet the naive path redoes all of it for every
manuscript.  :func:`build_candidate_features` runs that work exactly
once per candidate and freezes the results into
:class:`CandidateFeatures`; :class:`FeatureStore` caches them across
requests, keyed by candidate id and validated against the retrieval
plane's freshness epoch, the scoring context and the candidate's actual
source objects (identity first, equality as the content backstop), so a
changed world or a re-extracted profile rebuilds instead of serving
stale features.

Bit-identity notes — each feature is constructed with the naive path's
exact expressions and iteration orders:

- ``recency_pubs`` keeps publications in list order, dropping only
  entries the naive loop contributes nothing for (no year after the
  ``pub.get("year")`` fix, or no keywords *and* no title tokens), so the
  float summation order of non-zero terms is unchanged;
- venue counts accumulate integers in entry order (integer addition is
  exact, so regrouping per normalized venue cannot drift);
- ``dblp_years`` replicates the naive dict comprehension's
  last-occurrence-wins semantics, skipping records without id/year
  (which the naive mentorship rule would crash on, never score).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import get_obs
from repro.obs.ledger import charge_features
from repro.text.normalize import normalize_keyword
from repro.text.tokenize import tokenize

if TYPE_CHECKING:
    from repro.core.models import Candidate

#: Assumed span (years) of an undated affiliation — must match
#: :data:`repro.core.coi.UNDATED_SPAN_YEARS`.
_UNDATED_SPAN_YEARS = 3

#: ``Affiliation.overlaps`` maps an open-ended period to this end year.
_OPEN_END_YEAR = 10_000


@dataclass(frozen=True)
class ScoringContext:
    """The config-derived inputs candidate features depend on.

    Features bake in per-publication decay factors and concretized
    affiliation intervals, so they are only reusable while these values
    hold; the :class:`FeatureStore` treats a changed context as a miss.
    """

    current_year: int
    half_life_years: float

    @classmethod
    def from_config(cls, config) -> "ScoringContext":
        return cls(
            current_year=config.current_year,
            half_life_years=config.recency_half_life_years,
        )


@dataclass(frozen=True)
class CandidateFeatures:
    """Everything ranking + COI need from one candidate, precompiled.

    Attributes
    ----------
    interest_set:
        ``frozenset(normalize_keyword(i) for i in interests)``.
    log_citations / h_index:
        Both impact metrics, so a config flip never rebuilds.
    review_experience:
        ``float(review_count)``.
    timeliness:
        ``on_time_rate`` with the naive ``None -> 0.0`` default.
    venue_review_counts / venue_pub_counts:
        Normalized venue → integer count (reviews performed for /
        DBLP papers published in).
    recency_pubs:
        ``(keyword_norms | None, title_tokens | None, decay)`` per
        publication, in the naive publication order (Scholar list when
        non-empty, else DBLP); ``decay = 0.5 ** (age / half_life)``.
    decay_mass:
        ``sum`` of the decay factors — with the per-manuscript maximum
        expansion weight this bounds the recency score from above, which
        is what lets top-k selection skip the per-publication loop.
    pub_ids:
        ``frozenset(profile.publication_ids)`` for co-authorship
        intersections.
    source_ids:
        ``dict(profile.source_ids)`` for same-person checks.
    affiliations:
        ``(institution, country, start_year, effective_end_year)`` per
        profile affiliation, in order, with undated periods concretized
        exactly like :class:`repro.core.coi.CoiDetector` does.
    dblp_years:
        Publication id → year from the DBLP list (last wins), and
    dblp_first:
        its minimum (``None`` when the list is empty), for the
        mentorship rule.
    """

    interest_set: frozenset[str]
    log_citations: float
    h_index: float
    review_experience: float
    timeliness: float
    venue_review_counts: dict[str, int]
    venue_pub_counts: dict[str, int]
    recency_pubs: tuple[tuple[tuple[str, ...] | None, frozenset[str] | None, float], ...]
    decay_mass: float
    pub_ids: frozenset[str]
    source_ids: dict[str, str]
    affiliations: tuple[tuple[str, str, int, int], ...]
    dblp_years: dict[str, int]
    dblp_first: int | None


def concretize_interval(
    start_year: int, end_year: int | None, current_year: int
) -> tuple[int, int]:
    """An affiliation period as concrete ``(start, effective_end)`` years.

    Replicates ``CoiDetector._concretize`` (undated periods are assumed
    to cover the last ``UNDATED_SPAN_YEARS`` years) composed with
    ``Affiliation.overlaps`` (open ends extend to 10 000).
    """
    if start_year <= 0:
        start_year = current_year - _UNDATED_SPAN_YEARS
    return start_year, end_year if end_year is not None else _OPEN_END_YEAR


def recency_terms(
    keywords, title: str
) -> tuple[tuple[str, ...] | None, frozenset[str] | None] | None:
    """A publication's recency match terms: ``(kw_norms, None)`` from its
    keywords, else ``(None, title_tokens)``; ``None`` when it has neither
    (the naive loop scores such a publication 0)."""
    if keywords:
        return tuple(normalize_keyword(k) for k in keywords), None
    title_tokens = frozenset(tokenize(title))
    return (None, title_tokens) if title_tokens else None


def decay_factor(year: int, ctx: ScoringContext) -> float:
    """``0.5 ** (age / half_life)``, the recency decay of a ``year`` paper."""
    age = max(0, ctx.current_year - year)
    return 0.5 ** (age / ctx.half_life_years)


def build_candidate_features(
    candidate: Candidate, ctx: ScoringContext
) -> CandidateFeatures:
    """Compile one candidate's features (pure; no caching)."""
    profile = candidate.profile
    metrics = profile.metrics

    interest_set = frozenset(
        normalize_keyword(i) for i in candidate.interests()
    )

    venue_review_counts: dict[str, int] = {}
    for entry in candidate.venues_reviewed:
        venue = normalize_keyword(entry["venue"])
        venue_review_counts[venue] = venue_review_counts.get(venue, 0) + entry["count"]
    venue_pub_counts: dict[str, int] = {}
    for pub in candidate.dblp_publications:
        venue = normalize_keyword(pub.get("venue", ""))
        venue_pub_counts[venue] = venue_pub_counts.get(venue, 0) + 1

    publications = (
        candidate.scholar_publications
        if candidate.scholar_publications
        else candidate.dblp_publications
    )
    recency_pubs = []
    decay_mass = 0.0
    for pub in publications:
        year = pub.get("year")
        if year is None:
            continue
        terms = recency_terms(pub.get("keywords"), pub.get("title", ""))
        if terms is None:
            continue
        decay = decay_factor(year, ctx)
        recency_pubs.append((*terms, decay))
        decay_mass += decay

    dblp_years: dict[str, int] = {}
    for pub in candidate.dblp_publications:
        pub_id, year = pub.get("id"), pub.get("year")
        if pub_id is None or year is None:
            continue
        dblp_years[pub_id] = year

    return CandidateFeatures(
        interest_set=interest_set,
        log_citations=math.log1p(metrics.citations),
        h_index=float(metrics.h_index),
        review_experience=float(candidate.review_count),
        timeliness=(
            candidate.on_time_rate if candidate.on_time_rate is not None else 0.0
        ),
        venue_review_counts=venue_review_counts,
        venue_pub_counts=venue_pub_counts,
        recency_pubs=tuple(recency_pubs),
        decay_mass=decay_mass,
        pub_ids=frozenset(profile.publication_ids),
        source_ids=dict(profile.source_ids),
        affiliations=tuple(
            (aff.institution, aff.country)
            + concretize_interval(aff.start_year, aff.end_year, ctx.current_year)
            for aff in profile.affiliations
        ),
        dblp_years=dblp_years,
        dblp_first=min(dblp_years.values()) if dblp_years else None,
    )


class _Entry:
    """One cached feature set plus the evidence it was derived from."""

    __slots__ = (
        "features",
        "epoch",
        "ctx",
        "profile",
        "scholar_publications",
        "dblp_publications",
        "venues_reviewed",
        "review_count",
        "on_time_rate",
    )

    def __init__(self, candidate: Candidate, ctx: ScoringContext, epoch: int,
                 features: CandidateFeatures):
        self.features = features
        self.epoch = epoch
        self.ctx = ctx
        self.profile = candidate.profile
        self.scholar_publications = candidate.scholar_publications
        self.dblp_publications = candidate.dblp_publications
        self.venues_reviewed = candidate.venues_reviewed
        self.review_count = candidate.review_count
        self.on_time_rate = candidate.on_time_rate

    def valid_for(self, candidate: Candidate, ctx: ScoringContext, epoch: int) -> bool:
        if self.epoch != epoch:
            return False
        if not (self.ctx is ctx or self.ctx == ctx):
            return False
        if self.review_count != candidate.review_count:
            return False
        if self.on_time_rate != candidate.on_time_rate:
            return False
        # Identity first: the warm retrieval plane hands every request
        # the same template objects, so `is` settles the common case
        # without walking publication lists.  Equality is the content
        # backstop for the cold path's per-request copies.  (Inlined —
        # this runs once per candidate per phase on the hot path.)
        profile = candidate.profile
        scholar = candidate.scholar_publications
        dblp = candidate.dblp_publications
        venues = candidate.venues_reviewed
        return (
            (self.profile is profile or self.profile == profile)
            and (self.scholar_publications is scholar
                 or self.scholar_publications == scholar)
            and (self.dblp_publications is dblp
                 or self.dblp_publications == dblp)
            and (self.venues_reviewed is venues
                 or self.venues_reviewed == venues)
        )


class FeatureStore:
    """Bounded, thread-safe cross-request cache of candidate features.

    Parameters
    ----------
    epoch_provider:
        Zero-argument callable returning the current freshness epoch;
        defaults to a constant 0 for stand-alone (plane-less) use.  When
        attached to a :class:`repro.retrieval.plane.RetrievalPlane` this
        is the plane's epoch, so a world re-index invalidates features
        the same instant it invalidates cached profiles.
    capacity:
        LRU bound on cached candidates.
    """

    def __init__(
        self,
        epoch_provider: Callable[[], int] | None = None,
        capacity: int = 16384,
        name: str = "scoring",
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._epoch_provider = epoch_provider or (lambda: 0)
        self._capacity = capacity
        self._name = name
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.built = 0
        self.reused = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def features_for(
        self, candidate: Candidate, ctx: ScoringContext
    ) -> CandidateFeatures:
        """Cached features for ``candidate``, rebuilding when stale.

        A hit requires the same epoch, the same scoring context and the
        same candidate evidence (profile, publication lists, review
        stats) the cached entry was built from.
        """
        return self.features_for_many([candidate], ctx)[0]

    def features_for_many(
        self, candidates: list[Candidate], ctx: ScoringContext
    ) -> list[CandidateFeatures]:
        """Cached features for a whole candidate pool, in pool order.

        One lock round-trip and one metrics emission cover the batch —
        the per-candidate loop is the scoring plane's hottest path.
        """
        epoch = self._epoch_provider()
        features: list[CandidateFeatures | None] = [None] * len(candidates)
        misses: list[int] = []
        with self._lock:
            entries = self._entries
            for index, candidate in enumerate(candidates):
                entry = entries.get(candidate.candidate_id)
                if entry is not None and entry.valid_for(candidate, ctx, epoch):
                    entries.move_to_end(candidate.candidate_id)
                    features[index] = entry.features
                else:
                    misses.append(index)
            self.reused += len(candidates) - len(misses)
        # Build outside the lock: concurrent workers may build the same
        # candidate twice, which is benign — last write wins.
        for index in misses:
            features[index] = build_candidate_features(candidates[index], ctx)
        if misses:
            with self._lock:
                for index in misses:
                    candidate = candidates[index]
                    self._entries[candidate.candidate_id] = _Entry(
                        candidate, ctx, epoch, features[index]
                    )
                    self._entries.move_to_end(candidate.candidate_id)
                while len(self._entries) > self._capacity:
                    self._entries.popitem(last=False)
                self.built += len(misses)
                size = len(self._entries)
        obs = get_obs()
        if misses:
            obs.inc(
                "scoring_features_built_total",
                value=float(len(misses)),
                store=self._name,
            )
            obs.gauge("scoring_feature_entries", float(size), store=self._name)
        if len(candidates) > len(misses):
            obs.inc(
                "scoring_features_reused_total",
                value=float(len(candidates) - len(misses)),
                store=self._name,
            )
        charge_features(len(misses), len(candidates) - len(misses))
        return features

    def clear(self) -> None:
        """Drop every cached feature set (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-serialisable snapshot (served with the plane's stats)."""
        with self._lock:
            built, reused, size = self.built, self.reused, len(self._entries)
        total = built + reused
        return {
            "features_built": built,
            "features_reused": reused,
            "reuse_rate": round(reused / total, 4) if total else 0.0,
            "entries": size,
        }
