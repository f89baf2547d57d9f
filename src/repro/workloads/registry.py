"""The complete workload registry: every registering module, loaded.

Each workload module adds its factories to ``base.WORKLOADS`` when it is
imported.  The package reads ``WORKLOADS``, ``make_workload`` and
``workload_names`` from here, so whoever reaches them through
``repro.workloads`` sees every workload, while code that never names a
workload (a cache-hit CLI call) imports none of them.
"""

from . import art, btree, hash_table, rbtree, stamp, synthetic, tenant, ycsb  # noqa: F401
from .base import WORKLOADS, make_workload, workload_names

__all__ = ["WORKLOADS", "make_workload", "workload_names"]
