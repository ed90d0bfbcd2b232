"""The four workloads, by the names ``BENCHMARK.json`` gives them."""

from sysbench.workloads.analytics import HotAnalytics, ProcessAnalytics
from sysbench.workloads.live_ingest import LiveIngest
from sysbench.workloads.store_scan import StoreScan

WORKLOADS = {
    cls.name: cls for cls in (StoreScan, HotAnalytics, ProcessAnalytics, LiveIngest)
}
