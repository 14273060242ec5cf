"""The scale plane: end-to-end reviewer search over a streamed world.

Composes the scale-plane pieces into the paper's §2 query path at
population scale:

1. **Ingest** walks the :class:`~repro.world.streaming.StreamingWorld`
   once, block by block, and keeps only *index* structures: the sharded
   interest index (keyword → scholar postings), and the COI screen's
   posting maps — ``institution → (start, end, candidate)`` intervals
   and per-candidate co-author sets — both sharded by
   :func:`~repro.scale.sharding.shard_of`.  No scholar object stays
   resident; memory is O(postings), not O(world).
2. **Retrieval** scores every shard of the interest index under the
   global idf and merges the per-shard score maps
   (:func:`~repro.scale.sharding.merge_scored`).
3. **COI screening** fans per-shard: each shard screens its own pool
   members against its own co-author sets and probes its own
   institution postings with the submitters' affiliation intervals —
   the default :class:`~repro.core.coi.CoiDetector` rule (shared
   publications, overlapping institution periods concretised by
   :func:`~repro.scoring.features.concretize_interval`, same person).
4. **Scoring** realises only the surviving pool through the streaming
   world (LRU-cached blocks), builds features through one
   :class:`~repro.scoring.features.FeatureStore`, and computes MINARET's
   six raw §2.3 components per shard with the :mod:`repro.scoring`
   kernel.  The parent then takes the pool maxima — normalisation
   couples every candidate to every other, so it is the one global
   step — scores the whole pool with
   :func:`~repro.scoring.engine.pool_scorer`, and cuts the top-k under
   the canonical ``(-score, candidate_id)`` tie-break.

A query is a list of interest labels or a ``{label: sc}`` map: each
label is a manuscript seed keyword whose only expansion is itself,
scored ``sc`` (1.0 for a plain list), and there is no target venue.
Ranking runs under ``PipelineConfig(current_year=world's)`` defaults;
tf-idf retrieval relevance only selects and caps the pool.

Per-query work is proportional to the *retrieved pool*, not the world:
that is the sub-linear per-query wall time EXP-SCALE measures.  The
whole path is bit-identical at any worker/shard count, and with no pool
cap it equals the paper's own ranking of the same query —
:func:`repro.scale.bench.paper_reference_topk`, which screens every
matching scholar with :class:`~repro.core.coi.CoiDetector` and ranks
with :class:`~repro.core.ranking.NaiveRanker`.

Every fan-out has one dispatch path: the plane builds the
:mod:`repro.scale.worker` task descriptors and maps them through its
executor.  In-process executors run each descriptor against this plane;
a :class:`~repro.concurrency.process.ProcessExecutor` (detected via
``requires_pickling``) ships them to worker-local plane replicas
rehydrated from the world seed, with results — and the workers'
telemetry deltas — merged by the parent exactly as in-process.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.concurrency import Executor, SequentialExecutor
from repro.core.config import PipelineConfig
from repro.obs import get_obs
from repro.ontology.expansion import ExpandedKeyword
from repro.scale.sharding import ShardedInvertedIndex, merge_scored, shard_of
from repro.scale.worker import (
    ComponentRowsTask,
    RetrieveShardTask,
    ScreenShardTask,
    register_parent_plane,
    run_scale_task,
)
from repro.scholarly.records import (
    Metrics,
    SourceName,
    compute_h_index,
    compute_i10_index,
)
from repro.scoring.engine import (
    outlet_familiarity,
    pool_scorer,
    recency,
    scientific_impact,
    topic_coverage,
)
from repro.scoring.features import (
    FeatureStore,
    ScoringContext,
    concretize_interval,
)
from repro.scoring.query import ManuscriptQuery


@dataclass(frozen=True)
class PoolMember:
    """One retrieved candidate with its raw retrieval relevance."""

    candidate_id: str
    relevance: float


@dataclass(frozen=True)
class ScaleVerdict:
    """COI outcome for one pool member."""

    candidate_id: str
    has_conflict: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScaleHit:
    """One ranked recommendation: its §2.3 total and the six normalised
    components it folds (:data:`~repro.scoring.engine.COMPONENTS`)."""

    candidate_id: str
    name: str
    total_score: float
    components: dict[str, float]


@dataclass
class QueryStats:
    """Deterministic accounting of one query's work."""

    pool_size: int = 0
    screened_out: int = 0
    scored: int = 0


class ScalePlane:
    """Sharded reviewer search over one streamed world.

    Example
    -------
    >>> from repro.world import StreamingWorld, WorldConfig
    >>> plane = ScalePlane(StreamingWorld(WorldConfig(author_count=64)), n_shards=4)
    >>> plane.ingest()["index"]["documents"]
    64
    >>> hits, stats = plane.topk(["Name Disambiguation"], [], k=3)
    >>> len(hits) <= 3
    True
    """

    def __init__(
        self,
        world,
        n_shards: int = 1,
        executor: Executor | None = None,
        name: str = "scale",
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.world = world
        self.n_shards = int(n_shards)
        self._executor = executor or SequentialExecutor()
        self._name = name
        self._remote = bool(getattr(self._executor, "requires_pickling", False))
        if self._remote:
            # If the process pool ever degrades to an in-process
            # fallback, run_scale_task must still find a plane to run
            # descriptors against.
            register_parent_plane(self)
        self.index = ShardedInvertedIndex(n_shards, name=name)
        self.features = FeatureStore(
            epoch_provider=lambda: self.index.epoch, name=name
        )
        # MINARET's defaults, dated to the world's "today".
        self._config = PipelineConfig(current_year=world.config.current_year)
        self._context = ScoringContext.from_config(self._config)
        # COI posting maps, partitioned like the index: shard s holds
        # only candidates with shard_of(id) == s.
        self._institutions: list[dict[str, list[tuple[int, int, str]]]] = [
            {} for __ in range(n_shards)
        ]
        self._coauthors: list[dict[str, frozenset[str]]] = [
            {} for __ in range(n_shards)
        ]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(self) -> dict:
        """Stream the world once into the sharded index structures.

        Blocks are realised transiently (not via the world's LRU), so
        peak memory during ingest is one block plus the indexes being
        built.  Returns the post-ingest :meth:`stats` snapshot.
        """
        world = self.world
        obs = get_obs()
        ontology = world.ontology
        current_year = self._config.current_year
        with obs.span("scale.ingest", shards=self.n_shards):
            block_count = -(-world.config.author_count // world.block_size)
            for block_id in range(block_count):
                block = world._realize_block(block_id)
                for author in block.authors.values():
                    shard_id = shard_of(author.author_id, self.n_shards)
                    interests = {
                        ontology.topic(topic_id).label: weight
                        for topic_id, weight in sorted(
                            author.topic_expertise.items()
                        )
                    }
                    self.index.add(author.author_id, interests)
                    postings = self._institutions[shard_id]
                    for aff in author.affiliations:
                        start, end = concretize_interval(
                            aff.start_year, aff.end_year, current_year
                        )
                        postings.setdefault(aff.institution, []).append(
                            (start, end, author.author_id)
                        )
                    self._coauthors[shard_id][author.author_id] = frozenset(
                        block.coauthors[author.author_id]
                    )
        return self.stats()

    def refresh(self) -> int:
        """Plane-level refresh: bump every shard epoch (features follow)."""
        return self.index.bump_epoch()

    def stats(self) -> dict:
        index_stats = self.index.stats()
        return {
            "shards": self.n_shards,
            "authors": self.world.config.author_count,
            "index": index_stats,
            "features": self.features.stats(),
            "coi_institution_terms": sum(len(m) for m in self._institutions),
            "coi_candidates": sum(len(m) for m in self._coauthors),
        }

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def _fan_out(self, tasks: list) -> list:
        """Run shard task descriptors through the executor, in order.

        The one dispatch path of every phase: a process pool runs each
        descriptor against its worker's replica; any other executor runs
        it against this plane.
        """
        if self._remote:
            return self._executor.map(run_scale_task, tasks)
        return self._executor.map(lambda task: task.run(self), tasks)

    def retrieve(
        self,
        keywords: dict[str, float] | list[str],
        limit: int | None = None,
    ) -> list[PoolMember]:
        """Shard-parallel ranked retrieval over the interest index.

        Global idf is computed here, once, and shipped in each
        :class:`~repro.scale.worker.RetrieveShardTask`: every shard must
        score under the global corpus view, never its local one.
        """
        terms, weights = _normalize_query(keywords)
        obs = get_obs()
        with obs.span("scale.retrieve", shards=self.n_shards, terms=len(terms)):
            idf = self.index.global_idf(terms)
            score_maps = self._fan_out(
                [
                    RetrieveShardTask(
                        shard_id=shard_id,
                        terms=tuple(terms),
                        weights=weights,
                        idf=idf,
                    )
                    for shard_id in range(self.n_shards)
                ]
            )
            postings = merge_scored(score_maps, limit)
        return [PoolMember(p.doc_id, p.weight) for p in postings]

    def screen(
        self, pool: list[PoolMember], submitter_ids: list[str]
    ) -> list[ScaleVerdict]:
        """Shard-parallel COI screening of the retrieved pool.

        Per shard: probe the shard's institution postings with every
        submitter affiliation interval, then test each pool member for
        co-authorship with (or identity to) a submitter.  Verdicts come
        back in pool order.
        """
        submitters = set(submitter_ids)
        submitter_affs: list[tuple[str, int, int]] = []
        for submitter_id in submitter_ids:
            try:
                author = self.world.profile(self.world.author_index(submitter_id))
            except KeyError:
                continue
            for aff in author.affiliations:
                submitter_affs.append(
                    (aff.institution,)
                    + concretize_interval(
                        aff.start_year, aff.end_year, self._config.current_year
                    )
                )

        partitions: dict[int, list[tuple[int, PoolMember]]] = {}
        for position, member in enumerate(pool):
            shard_id = shard_of(member.candidate_id, self.n_shards)
            partitions.setdefault(shard_id, []).append((position, member))
        obs = get_obs()
        with obs.span(
            "scale.coi", shards=len(partitions), pool=len(pool)
        ):
            per_shard = self._fan_out(
                [
                    ScreenShardTask(
                        shard_id=shard_id,
                        members=tuple(members),
                        submitters=frozenset(submitters),
                        submitter_affs=tuple(submitter_affs),
                    )
                    for shard_id, members in sorted(partitions.items())
                ]
            )
        ordered: list[ScaleVerdict | None] = [None] * len(pool)
        for shard_verdicts in per_shard:
            for position, verdict in shard_verdicts:
                ordered[position] = verdict
        return ordered

    def screen_shard(
        self,
        shard_id: int,
        members: list[tuple[int, PoolMember]],
        submitters: set[str],
        submitter_affs: list[tuple[str, int, int]],
    ) -> list[tuple[int, ScaleVerdict]]:
        """Screen one shard's pool slice (what a ``ScreenShardTask`` runs).

        Probes this shard's institution postings with the submitters'
        affiliation intervals, then tests each member for identity with
        or co-authorship of a submitter.  Takes every query-scoped input
        explicitly so :class:`~repro.scale.worker.ScreenShardTask` can
        carry them across a process boundary unchanged.
        """
        inst_postings = self._institutions[shard_id]
        coauthors = self._coauthors[shard_id]
        overlapping: dict[str, set[str]] = {}
        for institution, start, end in submitter_affs:
            for c_start, c_end, candidate_id in inst_postings.get(institution, ()):
                if c_start <= end and start <= c_end:
                    overlapping.setdefault(candidate_id, set()).add(institution)
        verdicts = []
        for position, member in members:
            reasons: list[str] = []
            if member.candidate_id in submitters:
                reasons.append("submitting-author")
            shared = sorted(
                coauthors.get(member.candidate_id, frozenset()) & submitters
            )
            reasons.extend(f"coauthor:{a}" for a in shared)
            reasons.extend(
                f"institution:{i}"
                for i in sorted(overlapping.get(member.candidate_id, ()))
            )
            verdicts.append(
                (
                    position,
                    ScaleVerdict(
                        candidate_id=member.candidate_id,
                        has_conflict=bool(reasons),
                        reasons=tuple(reasons),
                    ),
                )
            )
        return verdicts

    def topk(
        self,
        keywords: dict[str, float] | list[str],
        submitter_ids: list[str],
        k: int = 10,
        pool_limit: int | None = None,
    ) -> tuple[list[ScaleHit], QueryStats]:
        """The full sharded query path: retrieve → screen → score.

        Returns the top-``k`` hits in canonical order plus the query's
        pool and screening counts.
        """
        stats = QueryStats()
        pool = self.retrieve(keywords, limit=pool_limit)
        stats.pool_size = len(pool)
        verdicts = self.screen(pool, submitter_ids)
        survivors = [
            member
            for member, verdict in zip(pool, verdicts)
            if not verdict.has_conflict
        ]
        stats.screened_out = len(pool) - len(survivors)
        query = ManuscriptQuery.compile(tuple(keywords), query_expansions(keywords))
        hits = self._score(survivors, query, k)
        stats.scored = len(survivors)
        return hits, stats

    def component_rows(
        self, candidate_ids: list[str], query: ManuscriptQuery
    ) -> list[tuple]:
        """The per-shard half of scoring: raw components of survivors.

        Realises each candidate, reads its features through the plane's
        store and returns ``(candidate_id, name, raw)`` per candidate,
        where ``raw`` holds the six raw §2.3 components in
        :data:`~repro.scoring.engine.COMPONENTS` order.  Plain tuples,
        so :class:`~repro.scale.worker.ComponentRowsTask` can ship them
        back across a process boundary; the scoring context comes from
        the world config, which a rehydrated replica shares.
        """
        candidates = [candidate_of(self.world, c) for c in candidate_ids]
        feats = self.features.features_for_many(candidates, self._context)
        return [
            (
                candidate.candidate_id,
                candidate.name,
                (
                    topic_coverage(features, candidate.matched_keywords, query),
                    scientific_impact(features, self._config),
                    recency(features, query),
                    features.review_experience,
                    outlet_familiarity(features, query),
                    features.timeliness,
                ),
            )
            for candidate, features in zip(candidates, feats)
        ]

    def _score(
        self, survivors: list[PoolMember], query: ManuscriptQuery, k: int
    ) -> list[ScaleHit]:
        """Shard-parallel raw components, then one pool-wide score.

        Each shard computes its survivors' raw components; the parent scores
        the whole pool with :func:`~repro.scoring.engine.pool_scorer`
        (normalisation by the pool maxima is the one genuinely global
        step) and keeps the top-k under the canonical tie-break.
        """
        if not survivors:
            return []
        obs = get_obs()
        partitions: dict[int, list[str]] = {}
        for member in survivors:
            partitions.setdefault(
                shard_of(member.candidate_id, self.n_shards), []
            ).append(member.candidate_id)
        with obs.span(
            "scale.score", shards=len(partitions), candidates=len(survivors)
        ):
            per_shard_rows = self._fan_out(
                [
                    ComponentRowsTask(candidate_ids=tuple(ids), query=query)
                    for __, ids in sorted(partitions.items())
                ]
            )
            rows = [row for shard_rows in per_shard_rows for row in shard_rows]
            maxima = [max(column) for column in zip(*(raw for __, __, raw in rows))]
            score = pool_scorer(self._config, maxima)
            hits = []
            for candidate_id, name, raw in rows:
                total, components = score(raw)
                hits.append(ScaleHit(candidate_id, name, total, components))
        return heapq.nsmallest(
            k, hits, key=lambda h: (-h.total_score, h.candidate_id)
        )


def query_expansions(
    keywords: dict[str, float] | list[str],
) -> list[ExpandedKeyword]:
    """A scale query as MINARET expansions: each label is its own seed.

    A dict weight is the label's expansion score ``sc``; a plain list
    scores every label 1.0.
    """
    terms, weights = _normalize_query(keywords)
    return [
        ExpandedKeyword(
            keyword=label,
            topic_id="",
            score=float((weights or {}).get(label, 1.0)),
            seed=label,
            depth=0,
        )
        for label in terms
    ]


def candidate_of(world, candidate_id: str):
    """A pipeline :class:`~repro.core.models.Candidate` realised from a
    streamed world (the owning block comes via the world's LRU)."""
    from repro.core.models import Candidate
    from repro.scholarly.records import MergedProfile

    scholar = world.scholar(candidate_id)
    author = scholar.author
    citations = [p.citation_count for p in scholar.publications]
    pubs = [
        {
            "id": p.pub_id,
            "title": p.title,
            "year": p.year,
            "keywords": list(p.keywords),
            "venue": world.venues[p.venue_id].name,
        }
        for p in scholar.publications
    ]
    venue_counts: dict[str, int] = {}
    on_time = 0
    for review in scholar.reviews:
        venue = world.venues[review.venue_id].name
        venue_counts[venue] = venue_counts.get(venue, 0) + 1
        on_time += 1 if review.on_time else 0
    ontology = world.ontology
    interests = tuple(
        ontology.topic(t).label for t in sorted(author.topic_expertise)
    )
    profile = MergedProfile(
        canonical_name=author.name,
        source_ids=((SourceName.DBLP, candidate_id),),
        affiliations=author.affiliations,
        interests=interests,
        metrics=Metrics(
            citations=sum(citations),
            h_index=compute_h_index(citations),
            i10_index=compute_i10_index(citations),
        ),
        publication_ids=tuple(p.pub_id for p in scholar.publications),
        review_ids=tuple(r.review_id for r in scholar.reviews),
    )
    return Candidate(
        candidate_id=candidate_id,
        name=author.name,
        profile=profile,
        scholar_publications=pubs,
        dblp_publications=pubs,
        review_count=len(scholar.reviews),
        on_time_rate=(
            round(on_time / len(scholar.reviews), 4)
            if scholar.reviews
            else None
        ),
        venues_reviewed=[
            {"venue": venue, "count": count}
            for venue, count in sorted(venue_counts.items())
        ],
    )


def _normalize_query(
    keywords: dict[str, float] | list[str],
) -> tuple[list[str], dict[str, float] | None]:
    if isinstance(keywords, dict):
        return list(keywords), dict(keywords)
    return list(keywords), None
