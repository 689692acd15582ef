"""Bad observability: ad-hoc counters outside TRACKED_COUNTER_ATTRS and
observations into attributes that are not MetricsHub instruments."""


class Mutator:
    def serve_page(self):
        self.pages_sent += 1  # lint:expect OBS001

    def charge(self, nbytes):
        self.bytes_out += nbytes  # lint:expect OBS001

    def time_fix(self, metrics, ticks):
        metrics.page_fix_ticks.observe(ticks)  # lint:expect OBS002

    def track_churn(self, tick):
        self.metrics.churn_progress.sample(tick, 1)  # lint:expect OBS002
