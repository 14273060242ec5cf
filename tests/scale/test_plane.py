"""End-to-end scale-plane tests: the sharded query path against the
paper's own COI rule and ranking formula (``paper_reference_topk``), at
every worker/shard combination."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import create_executor
from repro.scale.bench import paper_reference_topk, popular_labels
from repro.scale.plane import ScalePlane
from repro.scoring.engine import COMPONENTS
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
        pool = plane.retrieve(dict(scale_world.interest_weights(scale_world.author_index(coauthor))))
        verdicts = plane.screen(pool, ["author-5"])
        by_id = {v.candidate_id: v for v in verdicts}
        assert coauthor in by_id
        assert by_id[coauthor].has_conflict
        assert "coauthor:author-5" in by_id[coauthor].reasons

    def test_unknown_submitter_screens_nothing_extra(self, scale_world, keywords):
        plane = _plane(scale_world, 4)
        pool = plane.retrieve(keywords)
        baseline = plane.screen(pool, [])
        with_ghost = plane.screen(pool, ["author-99999"])
        assert baseline == with_ghost

    def test_verdicts_in_pool_order(self, scale_world, keywords):
        plane = _plane(scale_world, 16)
        pool = plane.retrieve(keywords)
        verdicts = plane.screen(pool, ["author-0"])
        assert [v.candidate_id for v in verdicts] == [
            m.candidate_id for m in pool
        ]


class TestIngest:
    def test_stats_cover_population(self, scale_world):
        plane = _plane(scale_world, 8)
        stats = plane.stats()
        assert stats["index"]["documents"] == 200
        assert stats["coi_candidates"] == 200
        assert stats["shards"] == 8

    def test_refresh_invalidates_features(self, scale_world, keywords, submitters):
        plane = _plane(scale_world, 4)
        first, __ = plane.topk(keywords, submitters, k=5)
        built = plane.features.built
        plane.refresh()
        second, __ = plane.topk(keywords, submitters, k=5)
        assert second == first
        assert plane.features.built == 2 * built

    def test_validation(self, scale_world):
        with pytest.raises(ValueError):
            ScalePlane(scale_world, n_shards=0)
