"""Process-backed scale queries: bit-identity, properties, pickling.

The module keeps ONE process pool alive (spawning interpreters dominates
test wall-clock) and reuses it for both the acceptance grid rows and the
hypothesis property — the executor contract guarantees a pool outlives
any single map.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concurrency import create_executor
from repro.scale.bench import paper_reference_topk, popular_labels
from repro.scale.plane import ScalePlane, query_expansions
from repro.scale.worker import (
    TASK_TYPES,
    RetrieveShardTask,
    ScaleWorkerBootstrap,
    ScreenShardTask,
    run_scale_task,
)
from repro.scoring.query import ManuscriptQuery
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld

_CONFIG = WorldConfig(author_count=200, seed=9)


@pytest.fixture(scope="module")
def scale_world():
    return StreamingWorld(_CONFIG, block_size=32)


@pytest.fixture(scope="module")
def labels(scale_world):
    return popular_labels(scale_world, sample=200, count=4)


@pytest.fixture(scope="module")
def submitters():
    return ["author-0", "author-1"]


@pytest.fixture(scope="module")
def sequential_plane(scale_world):
    plane = ScalePlane(scale_world, n_shards=4)
    plane.ingest()
    return plane


@pytest.fixture(scope="module")
def process_executor(sequential_plane):
    executor = create_executor(
        2, "process", bootstrap=ScaleWorkerBootstrap.for_plane(sequential_plane)
    )
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def process_plane(scale_world, process_executor):
    plane = ScalePlane(scale_world, n_shards=4, executor=process_executor)
    plane.ingest()
    return plane


class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_point_matches_brute_force(
        self, scale_world, labels, submitters, n_shards, workers
    ):
        """Process-backed top-k equals the paper's ranking of a full
        scan: ids, totals and all six components; an unknown submitter
        id changes nothing."""
        keywords = {labels[0]: 1.0, labels[1]: 0.8, labels[2]: 0.5}
        reference = paper_reference_topk(scale_world, keywords, submitters, k=10)
        executor = create_executor(
            workers,
            "process",
            bootstrap=ScaleWorkerBootstrap.for_world(scale_world, n_shards),
        )
        plane = ScalePlane(scale_world, n_shards=n_shards, executor=executor)
        plane.ingest()
        try:
            hits, stats = plane.topk(keywords, submitters, k=10)
            ghost_hits, __ = plane.topk(
                keywords, [*submitters, "author-999999"], k=10
            )
        finally:
            executor.close()
        assert hits == reference == ghost_hits
        assert stats.pool_size > 0

    def test_shard_cost_accounting_identical(
        self, sequential_plane, process_plane, labels, submitters
    ):
        keywords = {labels[0]: 1.0, labels[1]: 0.8}
        __, seq_stats = sequential_plane.topk(keywords, submitters, k=10)
        __, proc_stats = process_plane.topk(keywords, submitters, k=10)
        assert proc_stats.pool_size == seq_stats.pool_size
        assert proc_stats.scored == seq_stats.scored


class TestProcessSequentialProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_process_equals_sequential_for_any_query(
        self, data, sequential_plane, process_plane, labels, submitters
    ):
        """Property: whatever query hypothesis draws, the process plane
        answers exactly like the in-process sequential plane — ids,
        floats, order."""
        chosen = data.draw(
            st.lists(
                st.sampled_from(labels), min_size=1, max_size=3, unique=True
            )
        )
        weights = data.draw(
            st.lists(
                st.sampled_from([0.25, 0.5, 0.8, 1.0]),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        k = data.draw(st.sampled_from([1, 5, 10]))
        pool_limit = data.draw(st.sampled_from([None, 25]))
        keywords = dict(zip(chosen, weights))
        seq_hits, seq_stats = sequential_plane.topk(
            keywords, submitters, k=k, pool_limit=pool_limit
        )
        proc_hits, proc_stats = process_plane.topk(
            keywords, submitters, k=k, pool_limit=pool_limit
        )
        assert proc_hits == seq_hits
        assert proc_stats == seq_stats


class TestPlanesSideBySide:
    def test_each_plane_answers_from_its_own_world(
        self, scale_world, sequential_plane, process_plane, labels, submitters
    ):
        """A process plane registers itself as the in-process fallback
        target; in-process planes over this world and another one,
        alive in the same interpreter, must still run their tasks
        against themselves."""
        other_world = StreamingWorld(
            WorldConfig(author_count=200, seed=10), block_size=32
        )
        other_plane = ScalePlane(other_world, n_shards=4)
        other_plane.ingest()
        keywords = {labels[0]: 1.0, labels[1]: 0.8, labels[2]: 0.5}
        own, __ = process_plane.topk(keywords, submitters, k=10)
        other, __ = other_plane.topk(keywords, submitters, k=10)
        assert own == paper_reference_topk(scale_world, keywords, submitters, k=10)
        assert sequential_plane.topk(keywords, submitters, k=10)[0] == own
        assert other == paper_reference_topk(other_world, keywords, submitters, k=10)
        assert other and other != own


class TestDescriptorPickling:
    def _examples(self, sequential_plane):
        return {
            RetrieveShardTask: RetrieveShardTask(
                shard_id=1,
                terms=("graphs", "graphs", "ml"),
                weights={"graphs": 1.0, "ml": 0.5},
                idf={"graphs": 1.25, "ml": 2.5},
                limit=50,
            ),
            ScreenShardTask: ScreenShardTask(
                shard_id=0,
                members=((3, "author-3"), (7, "author-7")),
                submitters=frozenset({"author-0"}),
                submitter_affs=(("mit", 1, 2),),
                query=ManuscriptQuery.compile(
                    ("graphs", "ml"), query_expansions({"graphs": 1.0, "ml": 0.5})
                ),
            ),
        }

    def test_every_task_type_round_trips(self, sequential_plane):
        examples = self._examples(sequential_plane)
        assert set(examples) == set(TASK_TYPES)
        for task_type in TASK_TYPES:
            task = examples[task_type]
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task
            assert type(clone) is task_type

    def test_bootstrap_round_trips_and_rehydrates_equal_plane(
        self, sequential_plane, labels, submitters
    ):
        bootstrap = ScaleWorkerBootstrap.for_plane(sequential_plane)
        clone = pickle.loads(pickle.dumps(bootstrap))
        assert clone == bootstrap
        replica = clone.hydrate()
        keywords = {labels[0]: 1.0, labels[1]: 0.8}
        assert replica.topk(keywords, submitters, k=5) == sequential_plane.topk(
            keywords, submitters, k=5
        )

    def test_run_scale_task_requires_a_plane(self):
        import repro.scale.worker as worker_module

        saved = dict(worker_module._PARENT_PLANE)
        worker_module._PARENT_PLANE.clear()
        try:
            with pytest.raises(RuntimeError, match="no hydrated ScalePlane"):
                run_scale_task(RetrieveShardTask(shard_id=0, terms=("graphs",)))
        finally:
            worker_module._PARENT_PLANE.update(saved)
