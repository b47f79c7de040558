"""D-Galois-style distributed graphs, BSP and bounded-staleness execution.

GraphWord2Vec is implemented on a distributed graph-analytics framework; to
make the substrate credible independently of Word2Vec, this package provides
CSR graphs, distributed graphs over the :mod:`repro.gluon` partitioner, a
bulk-synchronous execution driver, and the classic applications the paper's
background section describes (sssp via Bellman-Ford and delta-stepping,
PageRank, connected components), all synchronized through Gluon.

Value-mode drivers satisfy the :class:`Engine` protocol
(:mod:`repro.dgraph.engine`; :class:`BSPEngine`).  The trainer's round loop
is :class:`~repro.dgraph.async_engine.SSPTrainingEngine`
(stale-synchronous parallel with a bounded staleness window; staleness 0
is BSP), built by :func:`resolve_training_engine`.
"""

from repro.dgraph.bsp import BSPEngine, RecoveryPolicy, RoundStats
from repro.dgraph.dist_graph import DistGraph
from repro.dgraph.engine import Engine, compensate_delta, resolve_training_engine
from repro.dgraph.graph import Graph

__all__ = [
    "Graph",
    "DistGraph",
    "BSPEngine",
    "RoundStats",
    "RecoveryPolicy",
    "Engine",
    "resolve_training_engine",
    "compensate_delta",
]
