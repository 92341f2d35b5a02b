"""A learned cost model over schedule features: ridge regression on
log-latency.

The model trains on the :class:`~repro.runtime.cache.MeasurementRecord`s a
:class:`~repro.runtime.cache.ScheduleCache` accumulates — every candidate a
tuner actually measured, across every problem tuned through that cache.
``bind(cache)`` attaches the training source; fitting is lazy and keyed on
the cache's ``measurement_version``, so the model silently refreshes as
tuning adds data and costs nothing when it doesn't.

Ridge over standardized features, solved by Gaussian elimination in pure
python (no numpy — the model must stay importable anywhere the runtime is).
Log-space targets because schedule latencies span orders of magnitude and
ranking is what matters, not absolute error.

Training cost: a refit featurizes only records it has not seen before (each
record's feature row is memoized on the exact featurize inputs) and builds
the normal equations column by column with C-level products and sums.  The
O(samples × features²) Gram rebuild remains: 41 features over 3.7k records
take about 0.2 s per refit on a 2-vCPU cloud VM (CPython 3.11).  Every Gram
entry is still the plain left-to-right sum over rows in sorted-key order, so
the fit is bit-identical to the straightforward row-major loop.

The model refuses to rank until it is *calibrated*: enough samples, enough
distinct problems (a model that has seen one GEMM extrapolates garbage),
and an in-sample R² above a floor.  ``rank`` returns ``None`` before then
and the tuner falls back to exhaustive measurement — see
:meth:`repro.core.tuning.MatmulTuner.tune` for the second (post-measurement)
calibration gate.
"""
from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add, attrgetter, mul
from typing import Optional, Sequence

from ..core.schedule import MatmulSchedule, schedule_fields
from ..gpusim.device import DeviceSpec, RTX3090
from .features import featurize

__all__ = ['RidgeCostModel']

if sys.version_info >= (3, 12):
    def _plain_sum(values) -> float:
        """Left-to-right float sum (builtin ``sum`` compensates rounding
        from 3.12 on, which would change the fit's bits)."""
        return reduce(add, values, 0.0)
else:
    _plain_sum = sum


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    ``a`` is symmetric positive definite here (ridge normal equations), so
    the pivot never vanishes; partial pivoting still bounds the rounding
    error deterministically.
    """
    size = len(b)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(aug[r][col]))
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        pivot_value = aug[col][col]
        if pivot_value == 0.0:
            raise ArithmeticError('singular normal equations despite ridge')
        for row in range(col + 1, size):
            factor = aug[row][col] / pivot_value
            if factor == 0.0:
                continue
            for j in range(col, size + 1):
                aug[row][j] -= factor * aug[col][j]
    x = [0.0] * size
    for row in range(size - 1, -1, -1):
        acc = aug[row][size] - sum(aug[row][j] * x[j]
                                   for j in range(row + 1, size))
        x[row] = acc / aug[row][row]
    return x


class RidgeCostModel:
    """Ranks matmul candidates by predicted latency; trains on cache
    measurements.

    Satisfies the duck-typed protocol :class:`repro.core.tuning.MatmulTuner`
    expects of a cost model (``rank`` / ``top_k`` /
    ``calibration_tolerance`` / ``bind`` / ``source``).
    """

    def __init__(self, device: DeviceSpec = RTX3090, *,
                 alpha: float = 1e-2,
                 rank_focus: float = 8.0,
                 top_k: int = 20,
                 calibration_tolerance: float = 0.25,
                 min_samples: int = 64,
                 min_problems: int = 2,
                 min_r2: float = 0.6):
        self.device = device
        #: ridge penalty on the standardized features
        self.alpha = float(alpha)
        #: importance-weighting exponent: sample weight is
        #: ``(problem_best / latency) ** rank_focus``.  Plain least squares
        #: (0.0) spends its capacity fitting the bulk of slow candidates;
        #: ranking only cares about telling the fast ones apart, so the
        #: near-best region is where the fit must be sharp
        self.rank_focus = float(rank_focus)
        #: how many predicted-best candidates the tuner measures
        self.top_k = int(top_k)
        #: mean |Δ log latency| on the measured top-k above which the tuner
        #: escalates to full measurement
        self.calibration_tolerance = float(calibration_tolerance)
        self.min_samples = int(min_samples)
        self.min_problems = int(min_problems)
        self.min_r2 = float(min_r2)
        #: bound ScheduleCache (training source); None until bind()
        self.source = None
        self._fitted_version: int = -1
        self._weights: Optional[list[float]] = None   # [bias] + per-feature
        self._mean: Optional[list[float]] = None
        self._std: Optional[list[float]] = None
        #: featurize inputs → feature row, for the records of the last fit
        self._feature_rows: dict[tuple, tuple[float, ...]] = {}
        #: in-sample R² of the last fit (log space); nan before any fit
        self.train_r2: float = math.nan
        self.num_samples: int = 0
        self.num_problems: int = 0

    # -- training ------------------------------------------------------

    def bind(self, cache) -> 'RidgeCostModel':
        """Attach the cache whose measurements this model trains on."""
        self.source = cache
        self._fitted_version = -1
        return self

    def featurize(self, m: int, n: int, k: int, sched: MatmulSchedule,
                  batch: int = 1, extra_read_bytes: float = 0.0,
                  extra_write_bytes: float = 0.0) -> tuple[float, ...]:
        return featurize(m, n, k, sched, device=self.device, batch=batch,
                         extra_read_bytes=extra_read_bytes,
                         extra_write_bytes=extra_write_bytes)

    def fit(self, records: Sequence) -> bool:
        """Fit on measurement records; returns readiness.

        Records are sorted by their canonical key first, so the fit (and
        every float-rounding decision inside it) is independent of the
        order measurements were taken in.
        """
        usable = sorted((r for r in records
                         if r.kind == 'matmul' and r.latency > 0.0),
                        key=attrgetter('key'))
        self.num_samples = len(usable)
        self.num_problems = len({r.problem_key for r in usable})
        self._weights = None
        self.train_r2 = math.nan
        if self.num_samples < self.min_samples \
                or self.num_problems < self.min_problems:
            return False

        # one feature row per record, memoized across refits on the exact
        # featurize inputs (record.key rounds the extra bytes, so two
        # records it calls equal can still featurize differently)
        memo, self._feature_rows = self._feature_rows, {}
        rows = []
        for r in usable:
            inputs = (r.m, r.n, r.k, r.batch, r.schedule,
                      r.extra_read_bytes, r.extra_write_bytes)
            row = memo.get(inputs)
            if row is None:
                row = self.featurize(r.m, r.n, r.k, r.schedule, batch=r.batch,
                                     extra_read_bytes=r.extra_read_bytes,
                                     extra_write_bytes=r.extra_write_bytes)
            self._feature_rows[inputs] = row
            rows.append(row)
        targets = [math.log(r.latency) for r in usable]
        # importance weights: how close each sample is to its problem's best
        best: dict[tuple, float] = {}
        for r in usable:
            current = best.get(r.problem_key)
            if current is None or r.latency < current:
                best[r.problem_key] = r.latency
        sample_weights = [(best[r.problem_key] / r.latency) ** self.rank_focus
                          for r in usable]
        count = float(self.num_samples)
        mean, std, columns = [], [], []
        for column in zip(*rows):
            mu = sum(column) / count
            var = sum([(x - mu) ** 2 for x in column]) / count
            sd = math.sqrt(var) if var > 0.0 else 1.0
            mean.append(mu)
            std.append(sd)
            columns.append([(x - mu) / sd for x in column])

        # weighted normal equations with a bias column; the bias is not
        # penalized, and the ridge term scales with the total weight so
        # alpha means the same thing at any corpus size.  Entry (i, j) is
        # the left-to-right sum over rows of (x_i * w) * x_j; rows where
        # x_i * w is zero add exact zeros, so skipping all-zero columns
        # changes nothing
        columns.insert(0, [1.0] * self.num_samples)
        width = len(columns)
        gram = [[0.0] * width for _ in range(width)]
        moment = [0.0] * width
        weight_total = sum(sample_weights)
        for i, column in enumerate(columns):
            weighted = list(map(mul, column, sample_weights))
            if not any(weighted):
                continue
            moment[i] = _plain_sum(map(mul, weighted, targets))
            gram_i = gram[i]
            for j in range(i, width):
                gram_i[j] = _plain_sum(map(mul, weighted, columns[j]))
        for i in range(width):
            for j in range(i + 1, width):
                gram[j][i] = gram[i][j]
        for i in range(1, width):
            gram[i][i] += self.alpha * weight_total
        try:
            weights = _solve(gram, moment)
        except ArithmeticError:
            return False

        # readiness R² under the same weighting the fit optimized — the
        # unweighted R² of a rank-focused fit would punish exactly the
        # slow-candidate error the objective chose to ignore
        feature_weights = weights[1:]
        predictions = [weights[0] + sum(map(mul, feature_weights, row))
                       for row in zip(*columns[1:])]
        y_mean = (sum(sw * y for sw, y in zip(sample_weights, targets))
                  / weight_total)
        ss_tot = sum(sw * (y - y_mean) ** 2
                     for sw, y in zip(sample_weights, targets))
        ss_res = sum(sw * (y - p) ** 2
                     for sw, y, p in zip(sample_weights, targets, predictions))
        self.train_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
        self._weights, self._mean, self._std = weights, mean, std
        return self.ready

    @property
    def ready(self) -> bool:
        """Calibrated enough to rank (the underfit gate)."""
        return (self._weights is not None
                and self.num_samples >= self.min_samples
                and self.num_problems >= self.min_problems
                and self.train_r2 >= self.min_r2)

    def _refresh(self) -> None:
        if self.source is None:
            return
        version = self.source.measurement_version
        if version != self._fitted_version:
            self.fit(self.source.measurements())
            self._fitted_version = version

    # -- inference -----------------------------------------------------

    def predict(self, m: int, n: int, k: int, sched: MatmulSchedule,
                batch: int = 1, extra_read_bytes: float = 0.0,
                extra_write_bytes: float = 0.0) -> float:
        """Predicted latency in seconds (requires a fitted model)."""
        if self._weights is None:
            raise RuntimeError('cost model is not fitted')
        features = self.featurize(m, n, k, sched, batch=batch,
                                  extra_read_bytes=extra_read_bytes,
                                  extra_write_bytes=extra_write_bytes)
        log_latency = self._weights[0] + sum(
            w * (x - mu) / sd for w, x, mu, sd
            in zip(self._weights[1:], features, self._mean, self._std))
        return math.exp(log_latency)

    def rank(self, m: int, n: int, k: int,
             candidates: Sequence[MatmulSchedule],
             batch: int = 1, extra_read_bytes: float = 0.0,
             extra_write_bytes: float = 0.0
             ) -> Optional[list[tuple[MatmulSchedule, float]]]:
        """Candidates ordered by predicted latency, best first, as
        ``(schedule, predicted_seconds)`` pairs — or ``None`` while the
        model is underfit (the tuner then measures exhaustively).

        Ties break on the schedule's field tuple, never on input order, so
        the ranking is a pure function of (training data, problem, set of
        candidates).
        """
        self._refresh()
        if not self.ready:
            return None
        scored = [(sched, self.predict(m, n, k, sched, batch=batch,
                                       extra_read_bytes=extra_read_bytes,
                                       extra_write_bytes=extra_write_bytes))
                  for sched in candidates]
        scored.sort(key=lambda pair: (pair[1], schedule_fields(pair[0])))
        return scored
