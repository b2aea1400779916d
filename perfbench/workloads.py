"""The benchmark's workloads, generated from a workload seed.

Each workload is a list of `Case`s: an instance text exactly as
`serialize_instance` writes it, plus what the correctness checks need to
find a reference optimum.  The workload seed drives one `random.Random`
(seeded with the workload name and the seed), and every instance draws its
own generator seed from it, so the same seed always gives the same texts.
Generating and serializing the cases is the benchmark's set-up; the solver
only ever sees the texts.
"""

import hashlib
import random
from dataclasses import dataclass

from bulkrobust import generators
from bulkrobust.instance import serialize_instance


@dataclass(frozen=True)
class Case:
    label: str              # family and generator parameters
    text: str               # instance JSON, as `bulkrobust solve` reads it
    hypergraph: object = None   # the generating hypergraph (hvc-lp): OPT = its vertex cover
    reference: bool = False     # compute a budgeted brute-force OPT (small-mix)


def _sub_seeds(name, seed):
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(2 ** 31)


# -- hvc-lp: a few large hypergraph vertex-cover reductions -----------------

HVC_SHAPES = ((4, 6, 80),) * 4 + ((3, 8, 150),) * 2   # (k, part size, hyperedges)


def hvc_lp(seed):
    cases = []
    for shape, sub in zip(HVC_SHAPES, _sub_seeds("hvc-lp", seed)):
        h, inst = generators.gen_hypergraph_vc(*shape, sub)
        label = "hvc k=%d part=%d edges=%d seed=%d" % (shape + (sub,))
        cases.append(Case(label, serialize_instance(inst), hypergraph=h))
    return cases


# -- tree-cover: level-1 exact cut covering on spanning-tree grids ----------
# Unit weights and many instances: with weights up to 3 or 5, single
# instances took 35 s to 167 s in the branch and bound, so a run's time
# would say more about its seed than about the solver.

TREE_GRID = (10, 10)
TREE_SCENARIOS = 36
TREE_DIAMETER = 3
TREE_WEIGHT_MAX = 1
TREE_COUNT = 200


def tree_cover(seed):
    rows, cols = TREE_GRID
    cases = []
    for _, sub in zip(range(TREE_COUNT), _sub_seeds("tree-cover", seed)):
        inst = generators.gen_grid(rows, cols, TREE_SCENARIOS, TREE_DIAMETER,
                                   TREE_WEIGHT_MAX, sub, problem="mst")
        cases.append(Case(f"grid {rows}x{cols} mst seed={sub}", serialize_instance(inst)))
    return cases


# -- small-mix: many acceptance-suite-sized instances ------------------------

SMALL_COUNT = 3000
SMALL_GRID_DIMS = ((2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 4), (2, 6))
SMALL_REFERENCE_STRIDE = 5   # coprime to the 4- and 6-cycles of the schedule


def small_mix(seed):
    """The acceptance-suite schedule (grid and series-parallel, `st` and
    `mst`, n <= 30, up to 6 scenarios, diameter <= 4), fresh seeds each."""
    cases = []
    for idx, sub in zip(range(SMALL_COUNT), _sub_seeds("small-mix", seed)):
        problem = "st" if (idx // 2) % 2 == 0 else "mst"
        m, k, wmax = 1 + idx % 6, 1 + idx % 4, (1, 2, 3, 5)[idx % 4]
        if idx % 2 == 0:
            rows, cols = SMALL_GRID_DIMS[(idx // 2) % len(SMALL_GRID_DIMS)]
            inst = generators.gen_grid(rows, cols, m, k, wmax, sub, problem=problem)
            label = f"grid {rows}x{cols} {problem} m={m} k={k} w={wmax} seed={sub}"
        else:
            depth = 1 + (idx // 2) % 4
            inst = generators.gen_series_parallel(depth, m, k, wmax, sub, problem=problem)
            label = f"sp depth={depth} {problem} m={m} k={k} w={wmax} seed={sub}"
        cases.append(Case(label, serialize_instance(inst),
                          reference=idx % SMALL_REFERENCE_STRIDE == 0))
    return cases


WORKLOADS = {"hvc-lp": hvc_lp, "tree-cover": tree_cover, "small-mix": small_mix}


def generate(name, seed):
    return WORKLOADS[name](seed)


def digest(texts):
    """SHA-256 over the texts in order, each length-prefixed."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8")
        h.update(b"%d:" % len(data))
        h.update(data)
    return h.hexdigest()
