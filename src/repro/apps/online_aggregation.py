"""Online aggregation over enumeration streams.

The paper's introduction: intermediate results can drive "approximate
summaries that improve in time (e.g., as in online aggregation)" — but only
if the prefix of answers seen so far is representative. A uniform random
permutation (REnum) makes the first ``k`` answers a simple random sample
*without replacement* of the answer set, so classical finite-population
estimators apply. Enumeration in index order carries no such guarantee:
its prefixes are an artifact of the join tree and can be arbitrarily
biased, which :mod:`examples.online_aggregation` demonstrates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional


@dataclass
class Estimate:
    """An anytime estimate of a population mean.

    Attributes
    ----------
    seen:
        Sample size so far.
    mean:
        The running sample mean.
    half_width:
        The half-width of the confidence interval (0 when undefined).
    population:
        Population size if known (enables the finite-population correction
        — the interval collapses to 0 as the sample exhausts the answers).
    """

    seen: int
    mean: float
    half_width: float
    population: Optional[int] = None

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


class OnlineAggregator:
    """A streaming mean/sum estimator with CLT confidence intervals.

    Parameters
    ----------
    value_of:
        Maps an answer tuple to the numeric quantity being aggregated.
    population:
        The total number of answers, when known (``index.count`` provides
        it in O(1)); enables the finite-population correction and sum
        estimation.
    confidence_z:
        The normal quantile for the interval (1.96 ≈ 95%).
    """

    def __init__(
        self,
        value_of: Callable[[tuple], float],
        population: Optional[int] = None,
        confidence_z: float = 1.96,
    ):
        self.value_of = value_of
        self.population = population
        self.confidence_z = confidence_z
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0  # Welford's running sum of squared deviations

    def observe(self, answer: tuple) -> None:
        """Consume one answer from the stream."""
        value = float(self.value_of(answer))
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def estimate(self) -> Estimate:
        """The current estimate of the population mean."""
        if self._count == 0:
            return Estimate(seen=0, mean=0.0, half_width=float("inf"),
                            population=self.population)
        if self._count == 1:
            return Estimate(seen=1, mean=self._mean, half_width=float("inf"),
                            population=self.population)
        variance = self._m2 / (self._count - 1)
        standard_error = math.sqrt(variance / self._count)
        if self.population is not None and self.population > 1:
            # Finite-population correction: sampling without replacement.
            fraction = (self.population - self._count) / (self.population - 1)
            standard_error *= math.sqrt(max(0.0, fraction))
        return Estimate(
            seen=self._count,
            mean=self._mean,
            half_width=self.confidence_z * standard_error,
            population=self.population,
        )

    def estimated_sum(self) -> float:
        """The estimated population sum (requires a known population)."""
        if self.population is None:
            raise ValueError("sum estimation requires the population size")
        return self._mean * self.population


def estimate_mean(
    stream: Iterable[tuple],
    value_of: Callable[[tuple], float],
    population: Optional[int] = None,
    report_every: int = 1,
) -> Iterator[Estimate]:
    """Fold a stream of answers into a sequence of anytime estimates.

    Yields an :class:`Estimate` after every ``report_every`` observations —
    the "summaries that improve in time" of the paper's motivation.
    """
    aggregator = OnlineAggregator(value_of, population=population)
    for position, answer in enumerate(stream, start=1):
        aggregator.observe(answer)
        if position % report_every == 0:
            yield aggregator.estimate()


def estimate_mean_via_index(
    index,
    value_of: Callable[[tuple], float],
    sample_size: Optional[int] = None,
    rng=None,
    report_every: int = 1,
) -> Iterator[Estimate]:
    """Anytime estimates over an index's uniform sample, drawn batched.

    The sample is the first ``sample_size`` answers (all by default) of
    ``index.random_order(rng)``, which resolves its positions one batch
    per block: the first estimate comes after one answer, not after the
    whole sample (the *anytime* contract), while the per-answer cost
    keeps the batching win. The draw sequence is identical (seeded rng
    included) to a
    :class:`~repro.core.permutation.RandomPermutationEnumerator` prefix.
    The population size is the index's O(1) count, enabling the
    finite-population correction. Prefer obtaining ``index`` from a
    :class:`~repro.service.QueryService` so repeated aggregations reuse
    one build.
    """
    return estimate_mean(
        itertools.islice(index.random_order(rng), sample_size),
        value_of,
        population=index.count,
        report_every=report_every,
    )
