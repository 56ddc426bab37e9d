"""Request streams: fixed questions, asked in an order ``--seed`` decides.

The program only ever sees generated ``VizRequest``s.  What they *ask* is
fixed per workload (``WORLD_SEED``) and comes in *blocks* of
``exact_slices`` slices: exploration sessions, dashboard views in exact
Zipf proportion, or taxi queries.  ``--seed`` decides the order inside
each slice and which sessions run side by side.  Exploration and taxi
blocks never repeat a request, so that traffic stays cold however long a
run lasts — no workload clears a cache through a back door; the dashboard
block is the same every time, which is its point.

Why shuffle rather than redraw: one session on a popular keyword over the
whole map costs a hundred times one that zoomed in, so 1 000 freshly
drawn requests differ in cost by +-18 % from slice to slice (measured at
the seed state).  Redrawing per seed would bury a 10 % regression under
the draw; fixed, balanced slices leave order and cache effects to vary and
keep the work the same.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterator

import numpy as np

from repro.datasets import TwitterConfig, build_twitter_tables
from repro.experiments.setups import EXPERIMENT_ZOOM_DECAY
from repro.serving import VizRequest, interleave
from repro.workloads import ExplorationSessionGenerator, TaxiWorkloadGenerator

from .spec import CHECK_REQUESTS, WORLD_SEED, Workload


def _explore_blocks(database, workload: Workload, n: int, spare: bool) -> Iterator[list[list]]:
    """Exploration sessions (zoom / pan / narrow), ``n`` new requests per
    block; a unit is one user's session.

    A block's sessions are dealt into ``exact_slices`` strata of about
    equal expected work; stratum *k* is ``units[k::exact_slices]``.
    """
    generator = ExplorationSessionGenerator(
        database, seed=WORLD_SEED + (31 if spare else 29)
    )
    # Expected matches of a view: keyword frequency x window x viewport.
    frequency = dict(
        database.index(generator.table, generator.text_column).most_common(40)
    )
    span = generator.time_hi - generator.time_lo
    area = generator.extent.area()

    def expected_work(unit: list) -> float:
        return sum(
            frequency.get(view.keyword, 0)
            * (view.time_range[1] - view.time_range[0]) / span
            * min(1.0, view.region.area() / area) ** 0.5
            for view in unit
        )

    strata = workload.exact_slices
    seen: set = set()
    while True:
        units: list[list] = []
        wanted = len(seen) + n
        while len(seen) < wanted:
            unit = []
            for step in generator.generate(workload.steps_per_session):
                if step.request not in seen and len(seen) < wanted:
                    seen.add(step.request)
                    unit.append(step.request)
            if unit:
                units.append(unit)
        # Heaviest first, dealt back and forth (0..k-1, k-1..0, ...).
        units.sort(key=expected_work, reverse=True)
        for low in range(0, len(units), 2 * strata):
            units[low + strata : low + 2 * strata] = reversed(
                units[low + strata : low + 2 * strata]
            )
        yield units


def _dashboard_blocks(database, workload: Workload, n: int, spare: bool) -> Iterator[list[list]]:
    """``n`` refreshes of one dashboard's views, each view as often as its
    Zipf rank says — exactly, so every block asks the same questions."""
    del spare  # the warm-up looks at the same dashboard
    sessions = ExplorationSessionGenerator(
        database, seed=WORLD_SEED + 29
    ).generate_many(workload.pool_views // 8, n_steps=8)
    views = [step.request for steps in sessions.values() for step in steps]
    weights = 1.0 / np.arange(1, len(views) + 1) ** workload.zipf_s
    exact = weights / weights.sum() * n
    counts = np.floor(exact).astype(int)
    # Largest remainders take what flooring left over.
    for rank in np.argsort(exact - counts)[::-1][: n - counts.sum()]:
        counts[rank] += 1
    units = [[view] for view, times in zip(views, counts) for _ in range(times)]
    while True:
        yield units


def _taxi_blocks(database, workload: Workload, n: int, spare: bool) -> Iterator[list[list]]:
    """``n`` new pre-translated taxi queries per block."""
    generator = TaxiWorkloadGenerator(
        database,
        seed=WORLD_SEED + (31 if spare else 29),
        zoom_decay=EXPERIMENT_ZOOM_DECAY,
    )
    seen: set = set()
    while True:
        units: list[list] = []
        while len(units) < n:
            for query in generator.generate(n):
                if query.key() not in seen and len(units) < n:
                    seen.add(query.key())
                    units.append([query])
        yield units


_BLOCKS = {"explore": _explore_blocks, "dashboard": _dashboard_blocks, "taxi": _taxi_blocks}


class Traffic:
    """One run's seeded streams, handed out slice by slice."""

    def __init__(self, database, workload: Workload, seed: int) -> None:
        blocks = _BLOCKS[workload.traffic]
        self._workload = workload
        self._request_ids = count()
        self._stream = self._requests(
            blocks(database, workload, workload.block_requests, False),
            np.random.default_rng(1_000 + seed),
        )
        # Warm-up and output check draw from blocks of their own, so the
        # timed window starts at the head of a block.
        self._spare = self._requests(
            blocks(database, workload, workload.warmup_requests + CHECK_REQUESTS, True),
            np.random.default_rng(5_000 + seed),
        )
        self._seed = seed
        self._new_rows = None
        self._row_batches = 0
        self._appended = 0
        #: Every batch of rows handed out, in order (the twin replays them).
        self.appended: list[dict] = []

    def _requests(self, blocks: Iterator[list[list]], rng: np.random.Generator) -> Iterator[VizRequest]:
        """Block after block; strata in their fixed order, each shuffled.

        Exploration units are whole sessions: ``sessions`` users explore
        side by side, and when they are done the next ones arrive, each a
        new session to the service.  Dashboard and taxi units are single
        requests, dealt round-robin to ``sessions`` long-lived sessions.
        """
        workload = self._workload
        explore = workload.traffic == "explore"
        strata = workload.exact_slices
        lanes_at_once = workload.sessions if explore else 1
        for number, units in enumerate(blocks):
            order = [
                unit
                for stratum in range(strata)
                for unit in rng.permutation(np.arange(stratum, len(units), strata))
            ]
            for low in range(0, len(order), lanes_at_once):
                lanes = []
                for unit in order[low : low + lanes_at_once]:
                    session = f"u{number}-{unit}" if explore else f"s{low % workload.sessions}"
                    lanes.append(
                        [
                            VizRequest(payload, session, request_id=next(self._request_ids))
                            for payload in units[unit]
                        ]
                    )
                yield from interleave(lanes)

    def take(self, n: int) -> list[VizRequest]:
        return list(islice(self._stream, n))

    def take_spare(self, n: int) -> list[VizRequest]:
        return list(islice(self._spare, n))

    def next_append(self) -> dict:
        """The next ``append_rows`` new tweets, as ``append_rows`` columns."""
        n = self._workload.append_rows
        if self._new_rows is None or self._appended + n > self._new_rows.n_rows:
            self._new_rows, _users = build_twitter_tables(
                TwitterConfig(
                    n_tweets=64 * n,
                    n_users=max(200, self._workload.rows // 20),
                    seed=2_000 + 100 * self._seed + self._row_batches,
                )
            )
            self._row_batches += 1
            self._appended = 0
        low, high = self._appended, self._appended + n
        self._appended = high
        table = self._new_rows
        rows = {
            column.name: table.column(column.name)[low:high]
            for column in table.schema.columns
        }
        self.appended.append(rows)
        return rows

    def all_appended(self, start: int = 0) -> dict:
        """Batches ``start``.. as one append: an engine that was handed the
        same rows without the traffic in between."""
        batches = self.appended[start:]
        return {
            name: (
                np.concatenate([rows[name] for rows in batches])
                if isinstance(first, np.ndarray)
                else [value for rows in batches for value in rows[name]]
            )
            for name, first in batches[0].items()
        }
