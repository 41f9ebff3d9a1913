"""Tests for the r-greedy algorithm (Algorithm 5.1)."""

import numpy as np
import pytest

from repro.algorithms import FIT_PAPER, FIT_STRICT, RGreedy
from repro.algorithms.base import SPACE_EPS, ChainSink
from repro.algorithms.rgreedy import offer_singles
from repro.core.benefit import RATIO_RTOL, BenefitEngine, chain_pick
from repro.core.qvgraph import QueryViewGraph
from repro.cube.schema import CubeSchema, Dimension
from repro.datasets.paper_figure2 import FIGURE2_SPACE
from repro.estimation.sizes import analytical_lattice


def chain_graph() -> QueryViewGraph:
    """One view whose value lives entirely in its two indexes."""
    g = QueryViewGraph()
    g.add_view("v", 2)
    g.add_index("v", "i1")
    g.add_index("v", "i2")
    g.add_view("w", 1)
    g.add_query("qa", 100)
    g.add_query("qb", 100)
    g.add_query("qc", 10)
    g.add_edge("qa", "i1", 1)
    g.add_edge("qb", "i2", 1)
    g.add_edge("qc", "w", 1)
    return g


class TestConstruction:
    def test_r_must_be_positive(self):
        with pytest.raises(ValueError):
            RGreedy(0)

    def test_invalid_fit_rejected(self):
        with pytest.raises(ValueError):
            RGreedy(1, fit="loose")

    def test_name_reflects_r(self):
        assert RGreedy(3).name == "3-greedy"

    def test_invalid_space_rejected(self):
        with pytest.raises(ValueError):
            RGreedy(1).run(chain_graph(), 0)


class TestOneGreedyPathology:
    """The Section 1 failure mode: 1-greedy never unlocks index-only value."""

    def test_1greedy_misses_view_with_index_only_value(self):
        result = RGreedy(1).run(chain_graph(), 4)
        assert "v" not in result.selected
        assert result.selected == ("w",)
        assert result.benefit == 9

    def test_2greedy_unlocks_it(self):
        result = RGreedy(2).run(chain_graph(), 7)
        assert "v" in result.selected and "i1" in result.selected
        assert result.benefit == 99 + 99 + 9  # {v,i1}, then i2, then w


class TestMechanics:
    def test_view_committed_before_its_indexes(self, fig2_g):
        result = RGreedy(2, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
        seen = set()
        for name in result.selected:
            struct = fig2_g.structure(name)
            if struct.is_index:
                assert struct.view_name in seen
            seen.add(name)

    def test_stage_benefits_sum_to_total(self, fig2_g):
        result = RGreedy(2, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
        assert sum(s.benefit for s in result.stages) == pytest.approx(result.benefit)

    def test_stage_tau_monotone_decreasing(self, fig2_g):
        result = RGreedy(3, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
        taus = [s.tau_after for s in result.stages]
        assert taus == sorted(taus, reverse=True)

    def test_strict_fit_respects_budget(self, tpcd_g):
        result = RGreedy(1, fit=FIT_STRICT).run(tpcd_g, 25e6, seed=("psc",))
        assert result.space_used <= 25e6

    def test_paper_fit_overshoot_bounded_unit_spaces(self, fig2_g):
        for r in (1, 2, 3):
            result = RGreedy(r, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
            assert result.space_used <= FIGURE2_SPACE + r - 1

    def test_no_duplicate_picks(self, fig2_g):
        result = RGreedy(3, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE)
        assert len(set(result.selected)) == len(result.selected)

    def test_stops_when_no_benefit_left(self):
        g = QueryViewGraph()
        g.add_view("v", 1)
        g.add_query("q", 10)
        g.add_edge("q", "v", 1)
        result = RGreedy(1).run(g, 100)
        assert result.selected == ("v",)  # nothing else worth picking

    def test_engine_reuse_resets_state(self, fig2_g):
        engine = BenefitEngine(fig2_g)
        first = RGreedy(1, fit=FIT_PAPER).run(engine, FIGURE2_SPACE)
        second = RGreedy(1, fit=FIT_PAPER).run(engine, FIGURE2_SPACE)
        assert first.selected == second.selected
        assert first.benefit == second.benefit

    def test_deterministic_across_runs(self, tpcd_g):
        a = RGreedy(2).run(tpcd_g, 20e6, seed=("psc",))
        b = RGreedy(2).run(tpcd_g, 20e6, seed=("psc",))
        assert a.selected == b.selected


class TestSeed:
    def test_seed_counted_in_space(self, tpcd_g):
        result = RGreedy(1).run(tpcd_g, 25e6, seed=("psc",))
        assert result.selected[0] == "psc"
        assert result.space_used >= 6e6

    def test_seed_recorded_as_stage(self, tpcd_g):
        result = RGreedy(1).run(tpcd_g, 25e6, seed=("psc",))
        assert result.stages[0].structures == ("psc",)

    def test_unknown_seed_raises(self, tpcd_g):
        with pytest.raises(KeyError):
            RGreedy(1).run(tpcd_g, 25e6, seed=("nope",))

    def test_seed_unlocks_indexes_for_1greedy(self):
        result = RGreedy(1).run(chain_graph(), 6, seed=("v",))
        assert "i1" in result.selected and "i2" in result.selected


class TestMonotoneInR:
    """Larger r never hurts on these instances (not a theorem, but holds
    on the paper's instances and is a useful regression check)."""

    def test_figure2_benefits_nondecreasing_in_r(self, fig2_g):
        benefits = [
            RGreedy(r, fit=FIT_PAPER).run(fig2_g, FIGURE2_SPACE).benefit
            for r in (1, 2, 3, 4)
        ]
        assert benefits == sorted(benefits)

    def test_more_space_never_hurts(self, fig2_g):
        b_small = RGreedy(2, fit=FIT_PAPER).run(fig2_g, 5).benefit
        b_large = RGreedy(2, fit=FIT_PAPER).run(fig2_g, 9).benefit
        assert b_large >= b_small


class TestOfferSingles:
    """The array run offer must leave the sink exactly where offering the
    same entries one at a time would."""

    @staticmethod
    def sinks(incumbent):
        pair = ChainSink(), ChainSink()
        if incumbent is not None:
            for sink in pair:
                sink.offer(("incumbent",), *incumbent)
        return pair

    @staticmethod
    def assert_same(vectorized, sequential):
        assert vectorized.ids == sequential.ids
        assert vectorized.ratio == sequential.ratio
        assert vectorized.benefit == sequential.benefit
        assert vectorized.space == sequential.space

    def check(self, ids, benefits, spaces, incumbent):
        vectorized, sequential = self.sinks(incumbent)
        offer_singles(vectorized, ids, benefits, spaces)
        winner = None
        for sid in ids.tolist():
            before = sequential.ids
            sequential.offer((sid,), float(benefits[sid]), float(spaces[sid]))
            if sequential.ids is not before:
                winner = sid
        self.assert_same(vectorized, sequential)
        # chain_pick itself names the sequential winner, or None when the
        # incumbent holds
        positive = ids[benefits[ids] > 0.0]
        ratios = benefits[positive] / spaces[positive]
        start = None if incumbent is None else incumbent[0] / incumbent[1]
        win = chain_pick(ratios, start)
        assert (None if win is None else int(positive[win])) == winner

    @pytest.mark.parametrize("seed", range(40))
    def test_tie_heavy_streams(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        # small integers: exact ties, zero and negative benefits
        benefits = rng.integers(-2, 6, size=n).astype(np.float64)
        spaces = rng.integers(1, 4, size=n).astype(np.float64)
        ids = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        for incumbent in (None, (2.0, 1.0), (float(rng.integers(1, 9)), 2.0)):
            self.check(ids, benefits, spaces, incumbent)

    @pytest.mark.parametrize("seed", range(40))
    def test_ratios_inside_the_tolerance_band(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 25))
        # ratios a fraction of RATIO_RTOL apart, rising and falling, so
        # the vectorized prefix-max test hits its ambiguous band
        steps = rng.integers(-3, 4, size=n) * (0.4 * RATIO_RTOL)
        spaces = rng.integers(1, 5, size=n).astype(np.float64)
        benefits = (1.0 + np.cumsum(steps)) * spaces
        benefits[rng.random(n) < 0.15] = 0.0
        ids = np.arange(n)
        for incumbent in (None, (1.0, 1.0), (1.0 + RATIO_RTOL, 1.0)):
            self.check(ids, benefits, spaces, incumbent)

    def test_empty_run_keeps_the_incumbent(self):
        vectorized, sequential = self.sinks((3.0, 1.0))
        offer_singles(vectorized, np.empty(0, dtype=np.int64), np.ones(1), np.ones(1))
        self.assert_same(vectorized, sequential)

    def test_no_positive_benefit_offers_nothing(self):
        sink = ChainSink()
        offer_singles(sink, np.arange(3), np.array([0.0, -1.0, 0.0]), np.ones(3))
        assert sink.ids is None


def reference_stage(engine: BenefitEngine, r: int, space_left: float, strict: bool):
    """One r-greedy stage as one ``ChainSink.offer`` per candidate, with no
    pruning, in the canonical order: views in id order; for a selected
    view, each unselected index alone; for an unselected view, the view
    alone, then each ``{view} ∪ T`` (``|T| <= r − 1``) depth-first over
    its indexes ranked by gain over the view."""
    sink = ChainSink()
    singles = engine.single_benefits(lazy=False)
    spaces = engine.spaces
    freq = engine.frequencies
    selected = engine.selected_mask

    def fits(space: float) -> bool:
        return not strict or space <= space_left + SPACE_EPS

    for view in engine.view_ids().tolist():
        indexes = engine.index_ids_of(view).tolist()
        if selected[view]:
            for idx in indexes:
                if not selected[idx] and fits(float(spaces[idx])):
                    sink.offer((idx,), float(singles[idx]), float(spaces[idx]))
            continue
        if not fits(float(spaces[view])):
            continue
        view_benefit = float(singles[view])
        sink.offer((view,), view_benefit, float(spaces[view]))
        if r < 2:
            continue
        base = engine.minimum_with(engine.best_costs, view)
        useful = [idx for idx in indexes if singles[idx] > 0.0]
        gains = engine.gains_for(useful, base).tolist()
        ranked = [idx for _g, idx in sorted(
            ((g, idx) for g, idx in zip(gains, useful) if g > 0.0),
            key=lambda pair: -pair[0],
        )]

        def search(t, chosen, cur_min, cur_space):
            if len(chosen) >= r - 1:
                return
            for rank in range(t, len(ranked)):
                idx = ranked[rank]
                new_space = cur_space + float(spaces[idx])
                if not fits(new_space):
                    continue
                new_min = engine.minimum_with(cur_min, idx)
                benefit = view_benefit + float(freq @ (base - new_min))
                sink.offer((view, *chosen, idx), benefit, new_space)
                search(rank + 1, chosen + [idx], new_min, new_space)

        search(0, [], base, float(spaces[view]))
    return sink


def tie_heavy_graph(seed: int) -> QueryViewGraph:
    """Spaces of 1 or 2 and small integer costs: exact ratio ties between
    bare views, bundles and single indexes are common."""
    rng = np.random.default_rng(seed)
    g = QueryViewGraph()
    names = []
    for v in range(int(rng.integers(2, 8))):
        g.add_view(f"V{v}", float(rng.integers(1, 3)))
        names.append(f"V{v}")
        for i in range(int(rng.integers(0, 5))):
            g.add_index(f"V{v}", f"I{v}.{i}", float(rng.integers(1, 3)))
            names.append(f"I{v}.{i}")
    for q in range(int(rng.integers(4, 20))):
        g.add_query(f"q{q}", float(rng.integers(5, 9)), frequency=float(rng.integers(1, 3)))
        for name in names:
            if rng.random() < 0.4:
                g.add_edge(f"q{q}", name, float(rng.integers(0, 5)))
    return g


class TestAgainstReferenceScan:
    """Every stage picks what the unpruned one-offer-at-a-time scan picks
    (lazy and eager singles are bitwise equal on the store)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_stages_match(self, seed):
        graph = tie_heavy_graph(seed)
        space = max(1.0, 0.4 * sum(s.space for s in graph.structures))
        engine = BenefitEngine(graph)
        for r in (1, 2, 3):
            for fit in (FIT_STRICT, FIT_PAPER):
                engine.reset()
                expected = []
                while engine.space_used() < space - SPACE_EPS:
                    sink = reference_stage(
                        engine, r, space - engine.space_used(), fit == FIT_STRICT
                    )
                    if sink.ids is None:
                        break
                    engine.commit(sink.ids)
                    expected.append(tuple(engine.name_of(i) for i in sink.ids))
                for lazy in (True, False):
                    result = RGreedy(r, fit=fit, lazy=lazy).run(engine, space)
                    got = [stage.structures for stage in result.stages]
                    assert got == expected, (r, fit, lazy)


def cube_lattice(n_dims: int):
    """The standard synthetic cube (cardinalities 4, 6, 8, ...)."""
    schema = CubeSchema(
        [Dimension(chr(ord("a") + i), 4 + 2 * i) for i in range(n_dims)]
    )
    return analytical_lattice(schema, 0.1 * schema.dense_cells)


class TestGolden:
    def test_d6_cube_tau_bitwise(self):
        """1- and 2-greedy on the full d=6 cube (2,020 structures x 729
        queries) with the top view plus a quarter of the rest as budget:
        τ must be bit-identical to the recorded values."""
        engine = BenefitEngine(QueryViewGraph.from_cube(cube_lattice(6)))
        top = float(engine.spaces[engine.view_ids()].max())
        budget = top + 0.25 * (float(engine.spaces.sum()) - top)
        taus = [RGreedy(r).run(engine, budget).tau.hex() for r in (1, 2)]
        assert taus == ["0x1.1ed18a4e4969ep+21", "0x1.b6dd57ec97034p+18"]
