"""Good observability: tracked counters, private state, other receivers."""


class Mutator:
    def tracked_counter(self):
        # In OBS001's TRACKED_COUNTER_ATTRS -> read out by snapshots.
        self.evictions += 1

    def private_state(self):
        # Leading underscore marks internal state, not telemetry.
        self._retry_budget += 1

    def nested_receiver(self):
        # Receiver is not ``self`` -- per-object bookkeeping is fine.
        self.frames[7].fix_count += 1

    def non_additive(self):
        # Only ``+=`` looks like a counter bump.
        self.high_water = max(self.high_water, 9)

    def tracked_histogram(self, metrics, ticks):
        # A MetricsHub histogram -> in snapshots.
        metrics.txn_latency_ticks.observe(ticks)

    def tracked_series(self, metrics, tick, done):
        # A MetricsHub time series.
        metrics.engine_progress.sample(tick, done)

    def local_instrument(self, hist, value):
        # A bare local instrument under construction is out of scope.
        hist.observe(value)

    def other_receiver(self, record, addr):
        # ``.observe`` on a non-metrics receiver (the DPL tracker).
        self.tracker.observe(record, addr)

    def rng_sample(self, rng, ids):
        # ``random.Random.sample`` is not telemetry.
        return rng.sample(ids, 2)
