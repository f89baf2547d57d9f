"""Workloads: real data structures over simulated memory + STAMP-likes.

Reading ``WORKLOADS``, ``make_workload`` or ``workload_names`` from this
package first loads every workload module (``registry``), so the
registry is complete; ``make_workload(name, num_threads, scale, seed)``
instantiates one.
The twelve names used by the paper's evaluation are: hash_table, btree,
art, rbtree, labyrinth, bayes, yada, intruder, vacation, kmeans, genome,
ssca2.
"""

from .. import _lazy_exports

#: The evaluation's twelve workloads, in the paper's figure order.
PAPER_WORKLOADS = [
    "hash_table",
    "btree",
    "art",
    "rbtree",
    "labyrinth",
    "bayes",
    "yada",
    "intruder",
    "vacation",
    "kmeans",
    "genome",
    "ssca2",
]

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".alloc": ("AddressSpace", "Arena"),
    ".art": ("AdaptiveRadixTree",),
    ".base": ("IndexInsertWorkload", "Workload", "register_workload"),
    ".btree": ("BPlusTree",),
    ".hash_table": ("HashTable",),
    ".memview": ("MemView",),
    ".rbtree": ("RedBlackTree",),
    ".registry": ("WORKLOADS", "make_workload", "workload_names"),
    ".stamp": (
        "SSCA2",
        "Bayes",
        "Genome",
        "Intruder",
        "KMeans",
        "Labyrinth",
        "Vacation",
        "Yada",
    ),
    ".synthetic": ("BurstyWrites", "Streaming", "UniformRandom", "Zipfian"),
    ".tenant": (
        "DEFAULT_TENANTS",
        "TENANT_CLASSES",
        "Tenant",
        "TenantClass",
        "TenantLoadWorkload",
    ),
    ".tracefile": (
        "TraceFormatError",
        "TraceWorkload",
        "capture_trace",
        "load_trace",
        "save_trace",
    ),
    ".ycsb": ("YCSB_MIXES", "YCSBWorkload"),
})
__all__.append("PAPER_WORKLOADS")
