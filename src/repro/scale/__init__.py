"""``repro.scale`` — the scale plane: sharded indexes over streamed worlds.

MINARET's pitch is recommending reviewers from the *whole* online
scholarly population, but a monolithic :class:`repro.storage.InvertedIndex`
and one COI posting map serialize every query behind single locks and
single cores.  This package shards both by ``hash(candidate_id) %
n_shards`` (:func:`shard_of` — a stable blake2b hash, not Python's
per-process ``hash``), gives each index shard its own lock and epoch
stamp, and fans per-shard work out as task descriptors
(:mod:`repro.scale.worker`) through the existing
:class:`repro.concurrency.Executor`, merging with the canonical
``(-score, candidate_id)`` tie-break so results are **bit-identical** to
the unsharded path at any worker or shard count.

:class:`ScalePlane` composes the pieces over a
:class:`repro.world.StreamingWorld`: ingest streams scholars once into
the sharded interest index, the COI maps and the array-backed ranking
columns (:class:`repro.scale.columns.ScholarColumns`), and each query
touches only the retrieved pool's column rows — no block is realised
after ingest and no scholar object stays resident.  A query costs two
fan-outs: retrieval, then screening, whose per-shard task also reads
the survivors' raw components.  The pool is ranked with MINARET's
own §2.3 formula through :mod:`repro.scoring` (the kernel the pipeline
uses), and with no pool cap the top-k equals
:func:`repro.scale.bench.paper_reference_topk` — ``CoiDetector`` and
``NaiveRanker`` run over every matching scholar.
"""

from repro.scale.plane import (
    PlaneNotIngestedError,
    PoolMember,
    ScalePlane,
    ScaleVerdict,
)
from repro.scale.sharding import ShardedInvertedIndex, shard_of
from repro.scale.worker import (
    RetrieveShardTask,
    ScaleWorkerBootstrap,
    ScreenShardTask,
    run_scale_task,
)

__all__ = [
    "PlaneNotIngestedError",
    "PoolMember",
    "RetrieveShardTask",
    "ScalePlane",
    "ScaleVerdict",
    "ScaleWorkerBootstrap",
    "ScreenShardTask",
    "ShardedInvertedIndex",
    "run_scale_task",
    "shard_of",
]
