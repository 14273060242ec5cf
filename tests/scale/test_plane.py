"""End-to-end scale-plane tests: the sharded query path against the
paper's own COI rule and ranking formula (``paper_reference_topk``), at
every worker/shard combination."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import create_executor
from repro.core.config import PipelineConfig
from repro.scale.bench import candidate_of, paper_reference_topk, popular_labels
from repro.scale.plane import (
    PlaneNotIngestedError,
    PoolMember,
    ScalePlane,
    query_expansions,
)
from repro.scoring.engine import (
    COMPONENTS,
    outlet_familiarity,
    recency,
    scientific_impact,
    topic_coverage,
)
from repro.scoring.features import ScoringContext, build_candidate_features
from repro.scoring.query import ManuscriptQuery
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld

_CONFIG = WorldConfig(author_count=200, seed=9)


@pytest.fixture(scope="module")
def scale_world():
    return StreamingWorld(_CONFIG, block_size=32)


@pytest.fixture(scope="module")
def keywords(scale_world):
    labels = popular_labels(scale_world, sample=200, count=3)
    return {labels[0]: 1.0, labels[1]: 0.8, labels[2]: 0.5}


@pytest.fixture(scope="module")
def submitters():
    return ["author-0", "author-1"]


#: A submitter id outside the 200-scholar world: both paths skip it.
_GHOST = "author-999999"


@pytest.fixture(scope="module")
def reference(scale_world, keywords, submitters):
    return paper_reference_topk(scale_world, keywords, submitters, k=10)


@pytest.fixture(scope="module")
def ghost_reference(scale_world, keywords, submitters):
    return paper_reference_topk(scale_world, keywords, [*submitters, _GHOST], k=10)


def _query(keywords):
    return ManuscriptQuery.compile(tuple(keywords), query_expansions(keywords))


def _plane(scale_world, n_shards, workers=1):
    executor = create_executor(workers, "thread" if workers > 1 else "auto")
    plane = ScalePlane(scale_world, n_shards=n_shards, executor=executor)
    plane.ingest()
    return plane


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_topk_matches_brute_force_at_every_grid_point(
        self,
        scale_world,
        keywords,
        submitters,
        reference,
        ghost_reference,
        n_shards,
        workers,
    ):
        """The acceptance grid: sharded top-k equals the paper's ranking
        of a full scan at 1/2/8 workers x 1/4/16 shards — same ids, same
        totals, same six component values, same order.  An unknown
        submitter id is skipped by both paths alike."""
        plane = _plane(scale_world, n_shards, workers)
        hits, stats = plane.topk(keywords, submitters, k=10)
        assert hits == reference
        assert len(hits) == 10
        assert all(tuple(h.components) == COMPONENTS for h in hits)
        assert stats.pool_size > 0
        ghost_hits, __ = plane.topk(keywords, [*submitters, _GHOST], k=10)
        assert ghost_hits == ghost_reference == reference

    def test_plain_keyword_list_query(self, scale_world, keywords, submitters):
        """A plain label list is the same query with every sc = 1.0."""
        plane = _plane(scale_world, 4)
        plain, __ = plane.topk(list(keywords), submitters, k=10)
        unit, __ = plane.topk({k: 1.0 for k in keywords}, submitters, k=10)
        assert plain == unit
        assert plain

    def test_pool_limit_caps_work(self, scale_world, keywords, submitters):
        plane = _plane(scale_world, 4)
        __, capped = plane.topk(keywords, submitters, k=10, pool_limit=20)
        __, full = plane.topk(keywords, submitters, k=10, pool_limit=None)
        assert capped.pool_size == 20 < full.pool_size
        assert capped.scored <= capped.pool_size
        assert capped.scored < full.scored


#: Small worlds for the property below, built and ingested once each.
_SMALL_WORLDS = ((48, 3), (96, 5), (128, 7))
_small_planes: dict = {}


def _small_plane(size, seed, n_shards):
    key = (size, seed, n_shards)
    if key not in _small_planes:
        world = StreamingWorld(WorldConfig(author_count=size, seed=seed), block_size=16)
        plane = ScalePlane(world, n_shards=n_shards)
        plane.ingest()
        _small_planes[key] = plane
    return _small_planes[key]


class TestPaperReferenceProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_topk_equals_paper_reference(self, data):
        """Property: on small worlds, any label triple with any weights
        and any submitters (an unknown id among them) ranks exactly as
        the paper's COI rule and formula do, at 1, 4 and 16 shards."""
        size, seed = data.draw(st.sampled_from(_SMALL_WORLDS))
        plane = _small_plane(size, seed, data.draw(st.sampled_from([1, 4, 16])))
        labels = popular_labels(plane.world, sample=size, count=8)
        triple = data.draw(
            st.lists(st.sampled_from(labels), min_size=3, max_size=3, unique=True)
        )
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=3,
                max_size=3,
            )
        )
        submitters = data.draw(
            st.lists(
                st.integers(0, size - 1).map(lambda i: f"author-{i}"),
                max_size=3,
            )
        )
        submitters.insert(data.draw(st.integers(0, len(submitters))), _GHOST)
        k = data.draw(st.sampled_from([1, 10, 50]))
        keywords = dict(zip(triple, weights))
        hits, __ = plane.topk(keywords, submitters, k=k)
        assert hits == paper_reference_topk(plane.world, keywords, submitters, k=k)


class TestScreening:
    def test_submitters_never_recommended(self, scale_world, keywords):
        plane = _plane(scale_world, 4)
        submitters = [f"author-{i}" for i in range(8)]
        hits, __ = plane.topk(keywords, submitters, k=200)
        assert not ({h.candidate_id for h in hits} & set(submitters))

    def test_coauthors_screened_with_reasons(self, scale_world):
        plane = _plane(scale_world, 4)
        scholar = scale_world.scholar("author-5")
        coauthor = sorted(scholar.coauthor_ids)[0]
        interests = dict(scale_world.interest_weights(scale_world.author_index(coauthor)))
        pool = plane.retrieve(interests)
        verdicts = plane.screen(pool, ["author-5"], _query(interests))
        by_id = {v.candidate_id: v for v in verdicts}
        assert coauthor in by_id
        assert by_id[coauthor].has_conflict
        assert "coauthor:author-5" in by_id[coauthor].reasons

    def test_unknown_submitter_screens_nothing_extra(self, scale_world, keywords):
        plane = _plane(scale_world, 4)
        pool = plane.retrieve(keywords)
        baseline = plane.screen(pool, [], _query(keywords))
        with_ghost = plane.screen(pool, ["author-99999"], _query(keywords))
        assert baseline == with_ghost

    def test_verdicts_in_pool_order(self, scale_world, keywords):
        plane = _plane(scale_world, 16)
        pool = plane.retrieve(keywords)
        verdicts = plane.screen(pool, ["author-0"], _query(keywords))
        assert [v.candidate_id for v in verdicts] == [
            m.candidate_id for m in pool
        ]
        assert all((v.raw is None) == v.has_conflict for v in verdicts)


class TestIngest:
    def test_stats_cover_population(self, scale_world):
        plane = _plane(scale_world, 8)
        stats = plane.stats()
        assert stats["index"]["documents"] == 200
        assert stats["coi_candidates"] == 200
        assert stats["shards"] == 8

    def test_refresh_leaves_topk_identical(self, scale_world, keywords, submitters):
        """The columns are a pure function of the seed: a refresh bumps
        the index epoch and changes no answer."""
        plane = _plane(scale_world, 4)
        first, __ = plane.topk(keywords, submitters, k=5)
        epoch = plane.refresh()
        assert epoch == plane.index.epoch
        second, __ = plane.topk(keywords, submitters, k=5)
        assert second == first

    def test_validation(self, scale_world):
        with pytest.raises(ValueError):
            ScalePlane(scale_world, n_shards=0)

    def test_query_before_ingest_raises(self):
        plane = ScalePlane(StreamingWorld(WorldConfig(author_count=64)), n_shards=4)
        with pytest.raises(PlaneNotIngestedError, match=r"ingest\(\)"):
            plane.topk(["Name Disambiguation"], [], k=3)
        with pytest.raises(PlaneNotIngestedError):
            plane.retrieve(["Name Disambiguation"])
        assert plane.stats()["columns"] is None
        plane.ingest()
        hits, stats = plane.topk(["Name Disambiguation"], [], k=3)
        assert stats.pool_size > 0 and hits


class TestColumns:
    def test_rows_equal_candidate_features(self, scale_world, keywords):
        """Every scholar's column-served raw components equal what the
        pipeline's features and engine functions compute from the
        realised candidate — scholars without reviews included."""
        plane = _plane(scale_world, 4)
        ids = [f"author-{i}" for i in range(_CONFIG.author_count)]
        query = _query(keywords)
        config = PipelineConfig(current_year=_CONFIG.current_year)
        ctx = ScoringContext.from_config(config)
        expected = []
        no_reviews = 0
        for candidate_id in ids:
            candidate = candidate_of(scale_world, candidate_id)
            no_reviews += candidate.review_count == 0
            f = build_candidate_features(candidate, ctx)
            raw = (
                topic_coverage(f.interest_set, candidate.matched_keywords, query),
                scientific_impact(f.log_citations, f.h_index, config),
                recency(f.recency_pubs, query),
                f.review_experience,
                outlet_familiarity(f.venue_review_counts, f.venue_pub_counts, query),
                f.timeliness,
            )
            expected.append((candidate_id, raw))
        assert no_reviews > 0
        verdicts = plane.screen([PoolMember(c, 0.0) for c in ids], [], query)
        assert [(v.candidate_id, v.raw) for v in verdicts] == expected

    def test_ingest_freezes_columns(self, scale_world):
        """Ingest drops the columns' dedup maps; no scholar can follow."""
        plane = _plane(scale_world, 4)
        with pytest.raises(RuntimeError, match="frozen"):
            plane._columns.append("late", {}, [], [])
        assert plane.stats()["columns"]["scholars"] == _CONFIG.author_count

    def test_no_block_realised_by_queries(self, keywords, submitters):
        world = StreamingWorld(_CONFIG, block_size=8, cache_blocks=2)
        plane = ScalePlane(world, n_shards=4)
        plane.ingest()
        before = world.stats()["blocks_realized"]
        for k in (1, 10, 200):
            hits, __ = plane.topk(keywords, submitters, k=k)
            assert hits
        assert world.stats()["blocks_realized"] == before
