"""Ingest-time ranking columns: what a scale query reads per candidate.

MINARET's six §2.3 components need only a few numbers per scholar plus
one ``(keywords, decay)`` row per publication.  :class:`ScholarColumns`
records those once, while :meth:`~repro.scale.plane.ScalePlane.ingest`
walks the world's cohort blocks, so a query never re-realises a block:

- per scholar (indexed by the ``author-N`` index): name, the impact
  value under the plane's :class:`~repro.core.config.PipelineConfig`,
  ``float(review_count)``, timeliness, and an id into a deduplicated
  table of normalized interest sets;
- per publication, a CSR slice ``pub_offsets[i]:pub_offsets[i + 1]`` in
  the scholar's ``(year, id)`` order, each row an id into a deduplicated
  table of recency match terms and an id into a table of decay factors.

Columns are :mod:`array` buffers, not per-scholar objects: a world of
1,200 scholars holds ~16.5k publication rows but only ~5k distinct
keyword tuples and ~30 distinct decays.  Every value is built by the
same :mod:`repro.scoring.features` helpers the pipeline's
:class:`~repro.scoring.features.CandidateFeatures` uses, and
:meth:`ScholarColumns.raw_components` scores it with the same
:mod:`repro.scoring.engine` functions, so the floats are the pipeline's.

A scale query has no target venue, so no venue counts are kept:
:func:`~repro.scoring.engine.outlet_familiarity` is called with none
and reads 0 for every scholar.
"""

from __future__ import annotations

import math
from array import array

from repro.core.config import PipelineConfig
from repro.scholarly.records import compute_h_index
from repro.scoring.engine import (
    outlet_familiarity,
    recency,
    scientific_impact,
    topic_coverage,
)
from repro.scoring.features import ScoringContext, decay_factor, recency_terms
from repro.scoring.query import ManuscriptQuery
from repro.text.normalize import normalize_keyword

#: Read-only stand-in for the matched keywords and venue counts a
#: streamed scholar does not have.
_EMPTY: dict = {}


class ScholarColumns:
    """Array-backed ranking inputs of every scholar of one world.

    Example
    -------
    >>> from repro.scale.plane import ScalePlane
    >>> from repro.world import StreamingWorld, WorldConfig
    >>> plane = ScalePlane(StreamingWorld(WorldConfig(author_count=16)))
    >>> plane.ingest()["columns"]["scholars"]
    16
    """

    def __init__(self, config: PipelineConfig):
        self._config = config
        self._ctx = ScoringContext.from_config(config)
        self.names: list[str] = []
        self.impact = array("d")
        self.review_experience = array("d")
        self.timeliness = array("d")
        self.interest_ids = array("I")
        self.pub_offsets = array("I", [0])
        self.pub_terms = array("I")
        self.pub_decays = array("H")
        self.interest_sets: list[frozenset[str]] = []
        self.terms: list[tuple[tuple[str, ...] | None, frozenset[str] | None]] = []
        self.decays: list[float] = []
        # Dedup maps (interest sets, match terms, decays): each distinct
        # value is stored once, in its table.  Only append() reads them,
        # so freeze() drops them.
        self._dedup: tuple[dict, dict, dict] | None = ({}, {}, {})

    def append(self, name: str, interests, publications, reviews) -> None:
        """Record the next scholar: ``interests`` are their registered
        labels, ``publications``/``reviews`` their records in
        ``(year, id)`` order (what :meth:`StreamingWorld.scholar` holds)."""
        if self._dedup is None:
            raise RuntimeError("frozen ScholarColumns take no more scholars")
        interest_ids, term_ids, decay_ids = self._dedup
        self.names.append(name)
        citations = [p.citation_count for p in publications]
        self.impact.append(
            scientific_impact(
                math.log1p(sum(citations)),
                float(compute_h_index(citations)),
                self._config,
            )
        )
        self.review_experience.append(float(len(reviews)))
        on_time = sum(1 for r in reviews if r.on_time)
        self.timeliness.append(round(on_time / len(reviews), 4) if reviews else 0.0)
        interest_set = frozenset(normalize_keyword(i) for i in interests)
        self.interest_ids.append(_intern(interest_ids, self.interest_sets, interest_set))
        for pub in publications:
            terms = recency_terms(pub.keywords, pub.title)
            if terms is None:
                continue
            self.pub_terms.append(_intern(term_ids, self.terms, terms))
            decay = decay_factor(pub.year, self._ctx)
            self.pub_decays.append(_intern(decay_ids, self.decays, decay))
        self.pub_offsets.append(len(self.pub_terms))

    def freeze(self) -> None:
        """End ingest: drop the dedup maps, which only :meth:`append`
        reads, so a plane keeps just the columns and their tables."""
        self._dedup = None

    def raw_components(self, index: int, query: ManuscriptQuery) -> tuple[float, ...]:
        """Scholar ``index``'s six raw §2.3 components, in
        :data:`~repro.scoring.engine.COMPONENTS` order."""
        terms, decays = self.terms, self.decays
        start, stop = self.pub_offsets[index], self.pub_offsets[index + 1]
        pubs = (
            (*terms[term_id], decays[decay_id])
            for term_id, decay_id in zip(
                self.pub_terms[start:stop], self.pub_decays[start:stop]
            )
        )
        return (
            topic_coverage(self.interest_sets[self.interest_ids[index]], _EMPTY, query),
            self.impact[index],
            recency(pubs, query),
            self.review_experience[index],
            outlet_familiarity(_EMPTY, _EMPTY, query),
            self.timeliness[index],
        )

    def stats(self) -> dict:
        return {
            "scholars": len(self.names),
            "publication_rows": len(self.pub_terms),
            "interest_sets": len(self.interest_sets),
            "keyword_tuples": len(self.terms),
            "decays": len(self.decays),
        }


def _intern(ids: dict, table: list, value) -> int:
    """The id of ``value`` in ``table``, appending it when new."""
    found = ids.get(value)
    if found is None:
        found = ids[value] = len(table)
        table.append(value)
    return found
