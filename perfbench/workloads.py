"""Workload registry: name -> workload class."""

from perfbench.acct import OltpReplicated, ShardedGoverned
from perfbench.analytics import AnalyticsCompiled

REGISTRY = {cls.name: cls for cls in (OltpReplicated, AnalyticsCompiled,
                                      ShardedGoverned)}
