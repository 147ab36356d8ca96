"""Downstream applications from the paper's introduction.

The paper motivates random-order enumeration by pipelines that consume
answers incrementally and assume the prefix seen so far is representative:
online aggregation, and paging through search results. This package builds
those two consumers on top of the core library:

* :mod:`repro.apps.online_aggregation` — anytime mean/sum estimators with
  confidence intervals over an answer stream; statistically valid exactly
  when the stream is a uniform permutation.
* :mod:`repro.apps.pagination` — random access as a paging primitive:
  retrieve page *i* of a query's answers without enumerating pages 0…i−1.
"""

from repro.apps.online_aggregation import OnlineAggregator, estimate_mean
from repro.apps.pagination import Paginator

__all__ = ["OnlineAggregator", "estimate_mean", "Paginator"]
