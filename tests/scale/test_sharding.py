"""Parity tests: the sharded index vs the monolithic original."""

import random

import pytest

from repro.concurrency import create_executor
from repro.scale import ShardedInvertedIndex, shard_of
from repro.storage.inverted import InvertedIndex

_TERMS = ["rdf", "sparql", "graphs", "nlp", "provenance", "indexing"]


def _corpus(doc_count: int = 120, seed: int = 17) -> dict[str, dict[str, float]]:
    rng = random.Random(seed)
    docs = {}
    for i in range(doc_count):
        terms = rng.sample(_TERMS, rng.randint(1, 4))
        docs[f"doc-{i}"] = {t: round(rng.uniform(0.1, 3.0), 3) for t in terms}
    return docs


def _pair(n_shards: int):
    mono, sharded = InvertedIndex(), ShardedInvertedIndex(n_shards)
    for doc_id, weights in _corpus().items():
        mono.add(doc_id, weights)
        sharded.add(doc_id, weights)
    return mono, sharded


class TestShardOf:
    def test_range_and_stability(self):
        for n in (1, 4, 16):
            assert all(0 <= shard_of(f"author-{i}", n) < n for i in range(200))
        assert shard_of("author-7", 16) == shard_of("author-7", 16)

    def test_not_process_randomized(self):
        # blake2b, not builtin hash: the value is a cross-process constant.
        assert shard_of("author-0", 16) == 1

    def test_single_shard_short_circuit(self):
        assert shard_of("anything", 1) == 0

    def test_spreads_documents(self):
        counts = [0] * 8
        for i in range(800):
            counts[shard_of(f"author-{i}", 8)] += 1
        assert min(counts) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedInvertedIndex(0)


class TestSearchParity:
    @pytest.mark.parametrize("n_shards", [1, 4, 16])
    def test_search_identical(self, n_shards):
        mono, sharded = _pair(n_shards)
        queries = [
            ["rdf"],
            ["rdf", "sparql", "nlp"],
            ["missing-term"],
            _TERMS,
            ["rdf", "rdf", "sparql"],  # duplicate query terms
        ]
        for terms in queries:
            assert sharded.search(terms) == mono.search(terms)
            assert sharded.search(terms, use_idf=False) == mono.search(
                terms, use_idf=False
            )
            weights = {t: 0.5 + 0.1 * i for i, t in enumerate(terms)}
            assert sharded.search(terms, query_weights=weights) == mono.search(
                terms, query_weights=weights
            )

    @pytest.mark.parametrize("n_shards", [4, 16])
    def test_limit_identical(self, n_shards):
        mono, sharded = _pair(n_shards)
        for limit in (0, 1, 5, 1000):
            assert sharded.search(_TERMS, limit=limit) == mono.search(
                _TERMS, limit=limit
            )

    def test_shard_cut_keeps_tied_top(self):
        """Every document scores alike, so only the doc-id tie-break
        decides which ones a shard's local cut keeps."""
        mono, sharded = InvertedIndex(), ShardedInvertedIndex(4)
        for i in range(60):
            mono.add(f"doc-{i}", {"rdf": 1.0})
            sharded.add(f"doc-{i}", {"rdf": 1.0})
        for limit in (1, 3, 7, 59, 60):
            assert sharded.search(["rdf"], limit=limit) == mono.search(
                ["rdf"], limit=limit
            )
            for shard_id in range(4):
                cut = sharded.score_shard(shard_id, ["rdf"], limit=limit)
                assert len(cut) <= limit
                assert cut.items() <= sharded.score_shard(shard_id, ["rdf"]).items()

    @pytest.mark.parametrize("workers", [2, 8])
    def test_threaded_fanout_identical(self, workers):
        # Concurrent searches share the per-shard locks and still see
        # exactly the monolithic results.
        mono, sharded = _pair(8)
        queries = [_TERMS, ["rdf", "nlp"], ["sparql"]] * 4
        executor = create_executor(workers, "thread")
        assert executor.map(sharded.search, queries) == [
            mono.search(terms) for terms in queries
        ]


class TestStats:
    def test_stats_aggregate_matches_monolithic(self):
        mono, sharded = _pair(4)
        mono_stats, sharded_stats = mono.stats(), sharded.stats()
        for key in ("documents", "postings", "terms"):
            assert sharded_stats[key] == mono_stats[key]
        assert len(sharded_stats["per_shard"]) == 4
        assert sum(s["documents"] for s in sharded_stats["per_shard"]) == len(mono)


class TestEpochs:
    def test_writes_advance_owning_shard(self):
        index = ShardedInvertedIndex(4)
        before = index.epoch
        index.add("doc-1", {"rdf": 1.0})
        assert index.epoch > before

    def test_bump_epoch_aligns_all_shards(self):
        index = ShardedInvertedIndex(4)
        index.add("doc-1", {"rdf": 1.0})
        index.add("doc-2", {"rdf": 1.0})
        target = index.bump_epoch()
        assert target == index.epoch
        assert all(shard.epoch == target for shard in index._shards)
        assert index.bump_epoch() == target + 1
