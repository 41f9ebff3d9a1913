"""The compiled selection problem, pinned.

Checkpoints embed ``BenefitEngine.fingerprint()`` and
``RunContext.bind`` rejects a checkpoint whose fingerprint differs, so a
change to how a graph compiles — node order, edge order, a merged or
dropped edge, a cost in its last bit — strands every saved checkpoint,
and fails here first.  The values do not depend on ``PYTHONHASHSEED``.
"""

import pytest

from repro.core.benefit import BenefitEngine
from repro.core.qvgraph import QueryViewGraph
from repro.cube.query_log import generate_query_log, pattern_counts
from repro.datasets.paper_figure2 import figure2_graph
from repro.datasets.tpcd import tpcd_graph
from repro.mining import mine_candidates
from tests.algorithms.test_rgreedy import cube_lattice


def mined_d4():
    lattice = cube_lattice(4)
    counts = pattern_counts(generate_query_log(lattice.schema, 400, rng=4))
    return QueryViewGraph.from_mined(lattice, mine_candidates(counts, lattice.schema.names))


PINNED = {
    "tpcd": (
        tpcd_graph,
        139,
        "sha256:4f3e515c0bf47bb3215de006f653ca7e4e63eb05f852edde175a48e2057a3b63",
    ),
    "figure2": (
        figure2_graph,
        40,
        "sha256:b4c883d1a42db375c2792544c0ebbf61e08f89a5374cd0dc71a9ff17d0343525",
    ),
    "from_cube_d4": (
        lambda: QueryViewGraph.from_cube(cube_lattice(4)),
        1160,
        "sha256:d178c599b4573449921b46214cb650a8dc0373c10d0b4f9e852c77d6999ec4cb",
    ),
    "from_mined_d4": (
        mined_d4,
        593,
        "sha256:6189ac3d34930e6b9bd77f6378d1c15077ce009bed2e8279c9caee0ad538e5e8",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_fingerprint_pinned(name):
    build, nnz, fingerprint = PINNED[name]
    engine = BenefitEngine(build())
    assert engine.nnz == nnz
    assert engine.fingerprint() == fingerprint
