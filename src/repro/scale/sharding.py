"""Hash-sharded inverted index with per-shard ranked retrieval.

One :class:`repro.storage.InvertedIndex` behind one lock is the scale
ceiling of the retrieval path: every posting-list union runs on one
core and every writer excludes every reader.  :class:`ShardedInvertedIndex`
splits the *document* space across ``n_shards`` independent
:class:`~repro.storage.inverted.InvertedIndex` instances — documents,
not terms, so ranked retrieval splits into per-shard units
(:meth:`ShardedInvertedIndex.score_shard`) that the scale plane fans out,
and a hot term's posting list is itself spread across shards.

Bit-identity with the monolithic index is held by two invariants:

- **Global idf.**  Per-shard scoring weights terms with idf computed
  from the *global* document count and document frequency
  (:func:`repro.storage.inverted.idf_of` over summed per-shard stats),
  never from a shard's local view.  Per-document accumulation order
  (query-term order) matches the monolithic
  :meth:`~repro.storage.inverted.InvertedIndex.score_terms` exactly, and
  each document lives in exactly one shard, so the merged score map is
  equal float-for-float.
- **Canonical merge.**  Merged results are ordered by the same
  ``(-score, doc_id)`` heap tie-break the monolithic ``search`` uses.

Documents enter once, through :meth:`ShardedInvertedIndex.add` at
ingest.  Each shard carries its own lock and epoch stamp: an add
advances only its owning shard's stamp, and ``bump_epoch()`` advances
every stamp at once, so a plane-level refresh invalidates all cached
derived state in one step.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import threading
from collections.abc import Iterable, Mapping

from repro.obs import get_obs
from repro.storage.inverted import InvertedIndex, Posting, idf_of


def shard_of(doc_id: str, n_shards: int) -> int:
    """The shard owning ``doc_id``: ``blake2b(doc_id) % n_shards``.

    A *stable* hash — Python's builtin ``hash`` is randomized per
    process, which would scatter the same world differently on every
    run and break cross-process reproducibility.
    """
    if n_shards == 1:
        return 0
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def _canonical(item: tuple[str, float]) -> tuple[float, str]:
    """The ``(-score, doc_id)`` ranking key of a ``(doc_id, score)`` item."""
    return (-item[1], item[0])


def merge_scored(
    score_maps: Iterable[Mapping[str, float]], limit: int | None = None
) -> list[Posting]:
    """Fold per-shard score maps into the canonical ranked result list.

    The one merge :meth:`ShardedInvertedIndex.search` and
    :meth:`~repro.scale.plane.ScalePlane.retrieve` share.  Each map is
    one shard's :meth:`ShardedInvertedIndex.score_shard` result, already
    in ``(-weight, doc_id)`` order, so the fold is a k-way merge that
    stops after ``limit`` postings (a negative ``limit`` keeps all).
    Each document lives in exactly one shard, so no cross-map
    combination is needed — which is why the merged floats equal the
    monolithic index's bit-for-bit.
    """
    merged = heapq.merge(*(scores.items() for scores in score_maps), key=_canonical)
    if limit is not None and limit >= 0:
        merged = itertools.islice(merged, limit)
    return [Posting(doc_id=d, weight=s) for d, s in merged]


class _Shard:
    """One independently locked, epoch-stamped index partition."""

    __slots__ = ("index", "lock", "epoch")

    def __init__(self):
        self.index = InvertedIndex()
        self.lock = threading.Lock()
        self.epoch = 0


class ShardedInvertedIndex:
    """Document-sharded inverted index, search-compatible with the
    monolithic :class:`~repro.storage.inverted.InvertedIndex`.

    Example
    -------
    >>> index = ShardedInvertedIndex(4)
    >>> index.add("alice", {"rdf": 2.0})
    >>> index.add("bob", {"rdf": 1.0})
    >>> [p.doc_id for p in index.search(["rdf"])]
    ['alice', 'bob']
    """

    def __init__(self, n_shards: int = 1, name: str = "scale"):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._shards = [_Shard() for __ in range(n_shards)]
        self._name = name

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def epoch(self) -> int:
        """The plane-level epoch: the maximum shard stamp."""
        return max(shard.epoch for shard in self._shards)

    def bump_epoch(self) -> int:
        """Advance every shard's stamp to one past the current maximum.

        This is the ``refresh_services()`` hook: all shards land on the
        same new epoch, so every consumer keyed on any shard's stamp —
        or on the plane-level maximum — sees its cache invalidated at
        once, exactly as with one monolithic epoch.
        """
        target = self.epoch + 1
        for shard in self._shards:
            with shard.lock:
                shard.epoch = target
        return target

    def shard_for(self, doc_id: str) -> int:
        return shard_of(doc_id, len(self._shards))

    # ------------------------------------------------------------------
    # Writes: ingest only (routed to the owning shard, under its lock)
    # ------------------------------------------------------------------

    def add(self, doc_id: str, term_weights: Mapping[str, float]) -> None:
        shard = self._shards[self.shard_for(doc_id)]
        with shard.lock:
            shard.index.add(doc_id, term_weights)
            shard.epoch += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        return sum(shard.index.document_frequency(term) for shard in self._shards)

    def stats(self) -> dict:
        """Aggregate and per-shard size counts (and the obs gauges)."""
        obs = get_obs()
        per_shard = []
        for shard_id, shard in enumerate(self._shards):
            with shard.lock:
                snapshot = shard.index.stats()
                snapshot["epoch"] = shard.epoch
            per_shard.append(snapshot)
            obs.gauge(
                "scale_shard_postings",
                float(snapshot["postings"]),
                index=self._name,
                shard=str(shard_id),
            )
            obs.gauge(
                "scale_shard_documents",
                float(snapshot["documents"]),
                index=self._name,
                shard=str(shard_id),
            )
        return {
            "shards": len(self._shards),
            "documents": sum(s["documents"] for s in per_shard),
            "postings": sum(s["postings"] for s in per_shard),
            "terms": len({t for shard in self._shards for t in shard.index._postings}),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def global_idf(self, terms: Iterable[str]) -> dict[str, float]:
        """Idf per query term from the *global* corpus view.

        Public because the scale plane computes idf once and ships it
        inside each shard's task descriptor — every shard must score
        under the same idf the monolithic search would use, never its
        shard-local view.
        """
        total_docs = sum(len(shard.index) for shard in self._shards)
        idf: dict[str, float] = {}
        for term in dict.fromkeys(terms):
            df = self.document_frequency(term)
            if df:
                idf[term] = idf_of(total_docs, df)
        return idf

    def score_shard(
        self,
        shard_id: int,
        terms: list[str],
        query_weights: Mapping[str, float] | None = None,
        idf: Mapping[str, float] | None = None,
        limit: int | None = None,
    ) -> dict[str, float]:
        """Score one shard's documents against a query, under its lock.

        The per-shard unit of :meth:`search`, exposed so task
        descriptors (see :mod:`repro.scale.worker`) can run exactly the
        same computation against a plane or a pool worker's replica.
        The map comes back in ``(-score, doc_id)`` order — what
        :func:`merge_scored` folds — and with ``limit``, cut to the
        shard's top ``limit``: a global top-``limit`` can hold no other
        document of this shard.
        """
        shard = self._shards[shard_id]
        with shard.lock:
            scores = shard.index.score_terms(terms, query_weights, idf=idf)
        if limit is None or not 0 <= limit < len(scores):
            return dict(sorted(scores.items(), key=_canonical))
        return dict(heapq.nsmallest(limit, scores.items(), key=_canonical))

    def search(
        self,
        terms: Iterable[str],
        query_weights: Mapping[str, float] | None = None,
        limit: int | None = None,
        use_idf: bool = True,
    ) -> list[Posting]:
        """Ranked OR-retrieval across every shard.

        Same contract (and same floats, same order) as the monolithic
        :meth:`~repro.storage.inverted.InvertedIndex.search`: per-shard
        scoring under the global idf, merged by score then id.
        """
        term_list = list(terms)
        idf = self.global_idf(term_list) if use_idf else None
        return merge_scored(
            (
                self.score_shard(shard_id, term_list, query_weights, idf, limit)
                for shard_id in range(len(self._shards))
            ),
            limit,
        )
