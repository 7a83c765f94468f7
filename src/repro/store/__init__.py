"""Columnar campaign store: the results layer of the scan pipeline.

The measurement loop (``repro.pipeline``) produces one result per
*site*; the paper's analyses consume results per *domain*.  Bridging
the two used to mean materialising one :class:`DomainObservation`
object per domain per weekly run — ~40 % of a serial campaign week.
This package stores a run the way large measurement platforms do
(PathSpider's typed result records, zgrab2's output pipeline): as
typed parallel arrays over observation positions, with the domain
dimension represented by per-site segments computed at plan build: a
week is the run's per-site records read through those segments.

* :mod:`repro.store.columns` — :class:`DomainColumns` (a scan plan's
  selection of the world's domain table rows + per-site attribution
  segments, built once per plan) and :class:`ObservationStore` (the
  per-run, read-only view of the plan over the run's site records).
* :mod:`repro.store.views` — :class:`ObservationView`, a lazy,
  field-compatible stand-in for :class:`DomainObservation`;
  :class:`StoreObservations`, the sequence view analysis iterates; and
  :class:`StoreWeeklyRun`, the store-backed weekly run.
* :mod:`repro.store.codec` — a compact binary codec for site-phase
  result batches, so pool workers ship one buffer per ticket-week
  instead of pickled object lists.

Every engine run reads through a store; its views are golden-identical
to the reference loop's eager objects (pinned by the ``objects`` leg of
``tests/differential.py`` and by ``tests/test_store_golden.py``).
"""

from repro.store.codec import decode_shard_results, encode_shard_results
from repro.store.columns import DomainColumns, ObservationStore, SiteSegment, plan_columns
from repro.store.views import ObservationView, StoreObservations, StoreWeeklyRun

__all__ = [
    "DomainColumns",
    "ObservationStore",
    "SiteSegment",
    "plan_columns",
    "ObservationView",
    "StoreObservations",
    "StoreWeeklyRun",
    "encode_shard_results",
    "decode_shard_results",
]
