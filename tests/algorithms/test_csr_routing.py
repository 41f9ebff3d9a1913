"""Which eager benefit kernel an engine runs: the sparse backend always
evaluates over the CSR store, the dense backend keeps its per-row matrix
passes for its whole lifetime — no selection run switches kernels.
"""

from repro.algorithms import LocalSearchRefiner, RGreedy
from repro.core.benefit import BenefitEngine
from repro.runtime.faults import _cube_graph, smoke_budget, top_view_of


class TestRoutingFlag:
    def test_sparse_backend_always_uses_csr(self):
        engine = BenefitEngine(_cube_graph(4), backend="sparse")
        assert engine.uses_csr_kernels

    def test_default_dense_run_keeps_matmul(self):
        engine = BenefitEngine(_cube_graph(4), backend="dense")
        space = smoke_budget(engine, 0.3)
        seed = (top_view_of(engine),)
        base = RGreedy(2, lazy=False).run(engine, space, seed=seed)
        LocalSearchRefiner(lazy=False).refine(
            engine, space, base.selected, protected=seed
        )
        assert not engine.uses_csr_kernels
