"""The scale plane: end-to-end reviewer search over a streamed world.

Composes the scale-plane pieces into the paper's §2 query path at
population scale:

1. **Ingest** walks the :class:`~repro.world.streaming.StreamingWorld`
   once, block by block, and keeps only *index* structures: the sharded
   interest index (keyword → scholar postings), the COI screen's
   posting maps — ``institution → (start, end, candidate)`` intervals
   and per-candidate co-author sets — both sharded by
   :func:`~repro.scale.sharding.shard_of`, and the array-backed ranking
   columns.  No scholar object stays resident; memory is O(postings +
   publication rows), not O(world objects).
2. **Retrieval** scores every shard of the interest index under the
   global idf, cuts each shard to its own top ``pool_limit``, and merges
   the per-shard score maps (:func:`~repro.scale.sharding.merge_scored`).
3. **COI screening** fans per-shard: each shard screens its own pool
   members against its own co-author sets and probes its own
   institution postings with the submitters' affiliation intervals —
   the default :class:`~repro.core.coi.CoiDetector` rule (shared
   publications, overlapping institution periods concretised by
   :func:`~repro.scoring.features.concretize_interval`, same person).
   In the same task, each survivor's six raw §2.3 components are read
   from the :class:`~repro.scale.columns.ScholarColumns` that ingest
   recorded while it walked the blocks — no block is realised after
   ingest — with the :mod:`repro.scoring` kernel.
4. **Scoring** runs in the parent: it takes the pool maxima —
   normalisation couples every candidate to every other, so it is the
   one global step — scores the whole pool with
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
executor, one chunk of shards per worker — on a process pool each chunk
is one pickled round trip, and a query makes two fan-outs.  In-process
executors run each descriptor against this plane; a
:class:`~repro.concurrency.process.ProcessExecutor` (detected via
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
from repro.scale.columns import ScholarColumns
from repro.scale.sharding import ShardedInvertedIndex, merge_scored, shard_of
from repro.scale.worker import (
    RetrieveShardTask,
    ScreenShardTask,
    register_parent_plane,
    run_scale_task,
)
from repro.scoring.engine import pool_scorer
from repro.scoring.features import concretize_interval
from repro.scoring.query import ManuscriptQuery


class PlaneNotIngestedError(RuntimeError):
    """A query reached a :class:`ScalePlane` whose ``ingest()`` never ran."""

    def __init__(self, name: str):
        super().__init__(
            f"scale plane {name!r} is empty: call ingest() before querying it"
        )


@dataclass(frozen=True)
class PoolMember:
    """One retrieved candidate with its raw retrieval relevance."""

    candidate_id: str
    relevance: float


@dataclass(frozen=True)
class ScaleVerdict:
    """COI outcome for one pool member.

    A survivor's verdict carries its six raw §2.3 components for the
    query in :data:`~repro.scoring.engine.COMPONENTS` order (``None``
    on a conflict).
    """

    candidate_id: str
    has_conflict: bool
    reasons: tuple[str, ...] = ()
    raw: tuple[float, ...] | None = None


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
        # MINARET's defaults, dated to the world's "today".
        self._config = PipelineConfig(current_year=world.config.current_year)
        #: Set by ingest(); a query on a plane without them raises.
        self._columns: ScholarColumns | None = None
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
        """Stream the world once into the sharded index structures and
        the ranking columns.

        Blocks are realised transiently (not via the world's LRU), so
        peak memory during ingest is one block plus the structures being
        built.  Returns the post-ingest :meth:`stats` snapshot.
        """
        world = self.world
        obs = get_obs()
        ontology = world.ontology
        current_year = self._config.current_year
        columns = ScholarColumns(self._config)
        with obs.span("scale.ingest", shards=self.n_shards):
            block_count = -(-world.config.author_count // world.block_size)
            for block_id in range(block_count):
                block = world._realize_block(block_id)
                for author in block.authors.values():
                    author_id = author.author_id
                    shard_id = shard_of(author_id, self.n_shards)
                    interests = {
                        ontology.topic(topic_id).label: weight
                        for topic_id, weight in sorted(
                            author.topic_expertise.items()
                        )
                    }
                    self.index.add(author_id, interests)
                    # Blocks hold their authors in index order, so
                    # column row i is author-i.
                    columns.append(
                        author.name,
                        interests,
                        [block.publications[p] for p in block.pubs_by_author[author_id]],
                        [block.reviews[r] for r in block.reviews_by_author[author_id]],
                    )
                    postings = self._institutions[shard_id]
                    for aff in author.affiliations:
                        start, end = concretize_interval(
                            aff.start_year, aff.end_year, current_year
                        )
                        postings.setdefault(aff.institution, []).append(
                            (start, end, author_id)
                        )
                    self._coauthors[shard_id][author_id] = frozenset(
                        block.coauthors[author_id]
                    )
        columns.freeze()
        self._columns = columns
        return self.stats()

    def refresh(self) -> int:
        """Plane-level refresh: bump every shard epoch.

        The columns are a pure function of the world's seed, so they
        stay valid across a refresh.
        """
        return self.index.bump_epoch()

    def stats(self) -> dict:
        index_stats = self.index.stats()
        return {
            "shards": self.n_shards,
            "authors": self.world.config.author_count,
            "index": index_stats,
            "columns": self._columns.stats() if self._columns is not None else None,
            "coi_institution_terms": sum(len(m) for m in self._institutions),
            "coi_candidates": sum(len(m) for m in self._coauthors),
        }

    def _ingested_columns(self) -> ScholarColumns:
        if self._columns is None:
            raise PlaneNotIngestedError(self._name)
        return self._columns

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def _fan_out(self, tasks: list) -> list:
        """Run shard task descriptors through the executor, in order.

        The one dispatch path of every phase: a process pool runs each
        descriptor against its worker's replica; any other executor runs
        it against this plane.  Tasks go in one chunk per worker: on a
        process pool every chunk is a pickled round trip plus a
        telemetry delta to absorb, which per-shard submission would pay
        ``n_shards`` times.
        """
        chunk_size = max(1, -(-len(tasks) // self._executor.workers))
        if self._remote:
            return self._executor.map(run_scale_task, tasks, chunk_size=chunk_size)
        return self._executor.map(
            lambda task: task.run(self), tasks, chunk_size=chunk_size
        )

    def retrieve(
        self,
        keywords: dict[str, float] | list[str],
        limit: int | None = None,
    ) -> list[PoolMember]:
        """Shard-parallel ranked retrieval over the interest index.

        Global idf is computed here, once, and shipped in each
        :class:`~repro.scale.worker.RetrieveShardTask`: every shard must
        score under the global corpus view, never its local one.  Each
        shard returns only its top ``limit``, which is all the merge can
        keep of it.
        """
        self._ingested_columns()
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
                        limit=limit,
                    )
                    for shard_id in range(self.n_shards)
                ]
            )
            postings = merge_scored(score_maps, limit)
        return [PoolMember(p.doc_id, p.weight) for p in postings]

    def screen(
        self,
        pool: list[PoolMember],
        submitter_ids: list[str],
        query: ManuscriptQuery,
    ) -> list[ScaleVerdict]:
        """Shard-parallel COI screening of the retrieved pool.

        Per shard: probe the shard's institution postings with every
        submitter affiliation interval, then test each pool member for
        co-authorship with (or identity to) a submitter.  The same task
        reads each survivor's raw components for ``query`` from the
        columns into its verdict's ``raw``, so scoring needs no fan-out
        of its own.  Verdicts come back in pool order.
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

        partitions: dict[int, list[tuple[int, str]]] = {}
        for position, member in enumerate(pool):
            shard_id = shard_of(member.candidate_id, self.n_shards)
            partitions.setdefault(shard_id, []).append(
                (position, member.candidate_id)
            )
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
                        query=query,
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
        members: list[tuple[int, str]],
        submitters: set[str],
        submitter_affs: list[tuple[str, int, int]],
        query: ManuscriptQuery,
    ) -> list[tuple[int, ScaleVerdict]]:
        """Screen one shard's pool slice (what a ``ScreenShardTask`` runs).

        Probes this shard's institution postings with the submitters'
        affiliation intervals, then tests each ``(position,
        candidate_id)`` member for identity with or co-authorship of a
        submitter; a survivor's verdict carries its raw components for
        ``query``, read from the columns.  Takes every query-scoped input
        explicitly so :class:`~repro.scale.worker.ScreenShardTask` can
        carry them across a process boundary unchanged.
        """
        columns = self._ingested_columns()
        inst_postings = self._institutions[shard_id]
        coauthors = self._coauthors[shard_id]
        overlapping: dict[str, set[str]] = {}
        for institution, start, end in submitter_affs:
            for c_start, c_end, candidate_id in inst_postings.get(institution, ()):
                if c_start <= end and start <= c_end:
                    overlapping.setdefault(candidate_id, set()).add(institution)
        verdicts = []
        for position, candidate_id in members:
            reasons: list[str] = []
            if candidate_id in submitters:
                reasons.append("submitting-author")
            shared = sorted(coauthors.get(candidate_id, frozenset()) & submitters)
            reasons.extend(f"coauthor:{a}" for a in shared)
            reasons.extend(
                f"institution:{i}" for i in sorted(overlapping.get(candidate_id, ()))
            )
            raw = None
            if not reasons:
                raw = columns.raw_components(
                    self.world.author_index(candidate_id), query
                )
            verdicts.append(
                (
                    position,
                    ScaleVerdict(candidate_id, bool(reasons), tuple(reasons), raw),
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
        query = ManuscriptQuery.compile(tuple(keywords), query_expansions(keywords))
        survivors = [
            verdict
            for verdict in self.screen(pool, submitter_ids, query)
            if not verdict.has_conflict
        ]
        stats.screened_out = len(pool) - len(survivors)
        hits = self._score(survivors, k)
        stats.scored = len(survivors)
        return hits, stats

    def _score(self, survivors: list[ScaleVerdict], k: int) -> list[ScaleHit]:
        """Score the whole pool from its survivors' raw components.

        Normalisation by the pool maxima is the one genuinely global
        step, so it runs here, over every shard's rows:
        :func:`~repro.scoring.engine.pool_scorer` scores each survivor
        and the top-k is cut under the canonical tie-break.
        """
        if not survivors:
            return []
        obs = get_obs()
        with obs.span("scale.score", candidates=len(survivors)):
            maxima = [max(column) for column in zip(*(v.raw for v in survivors))]
            score = pool_scorer(self._config, maxima)
            scored = [(score(v.raw), v.candidate_id) for v in survivors]
            best = heapq.nsmallest(k, scored, key=lambda s: (-s[0][0], s[1]))
        names = self._ingested_columns().names
        return [
            ScaleHit(
                candidate_id,
                names[self.world.author_index(candidate_id)],
                total,
                components,
            )
            for (total, components), candidate_id in best
        ]


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


def _normalize_query(
    keywords: dict[str, float] | list[str],
) -> tuple[list[str], dict[str, float] | None]:
    if isinstance(keywords, dict):
        return list(keywords), dict(keywords)
    return list(keywords), None
