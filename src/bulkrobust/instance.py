"""Embedded planar multigraph instances and the JSON instance format.

A graph is stored combinatorially: node ids, edges with distinct integer
ids, and a rotation system (per node, the cyclic clockwise order of
incident edge ids).  The rotation system *is* the embedding; validity is
checked through Euler's formula after face tracing, never by planarity
testing.  `Instance` checks its input in one pass, which also builds the
edge views the solve reads; its `graph` shares the instance's dicts.

Contraction has two parts: `PlaneGraph.group` merges the nodes, and
`PlaneGraph.contract` calls it and then walks the rotation around each
merged group.  The walk runs only where faces are read; a caller that
needs the groups alone takes `group`.

The package's one union-find is a list indexed by node (or face) id, run
by `_find`, `_union` and `_merge`; `requirement_met` and `Feasibility` read
the requirement from it.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

from .errors import InfeasibleError, InstanceError, InvariantError

# Costs and LP values are also handled as floats; up to this total weight
# every sum of weights is exact in one.
MAX_TOTAL_WEIGHT = 2 ** 53


def _find(parent, x):
    """Root of x in a list-based union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent, a, b):
    """Join the trees of a and b, the smaller root on top, so that every root
    is its tree's smallest id; True iff they were apart."""
    a, b = _find(parent, a), _find(parent, b)
    if a == b:
        return False
    if b < a:
        a, b = b, a
    parent[b] = a
    return True


def _label(parent, label, node):
    """Small consecutive label of node's component, numbered on first sight."""
    return label.setdefault(_find(parent, node), len(label))


def _merge(parent, rows, skip=()):
    """Union the rows (e, a, b) whose edge is not in `skip` into the list-based
    forest `parent`; returns (parent, merges)."""
    merges = 0
    for e, u, v in rows:        # _find inlined: this loop is the hot path
        if e in skip:
            continue
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
            merges += 1
    return parent, merges


def requirement_met(node_count, rows, problem, s, t, skip=()):
    """The requirement on nodes 0..node_count-1 joined by the rows (e, u, v)
    whose edge is not in `skip`: s and t in one component for 'st', all
    nodes in one for 'mst'."""
    parent, merges = _merge(list(range(node_count)), rows, skip)
    if problem == "mst":
        return merges == node_count - 1
    return _find(parent, s) == _find(parent, t)


def _label_scenario(instance, x, full, start, components, merge_rows):
    """One scenario's entry of the Feasibility table of X: a copy of the
    forest `start` (`components` trees, read for 'mst' only) takes the
    `merge_rows` whose edge is not in F_j = `full`, giving a forest of
    (V, X - F_j).  None when X - F_j already meets the requirement, else
    (rows, size, target, parent): the rows of F_j & X between the `size`
    labels of their ends' components, and `target` the component count for
    'mst' or the labels of s and t for 'st'.

    Labels are numbered on first sight: s and t, then the ends of the rows
    of F_j & X in ascending edge order.  They depend on the forest's
    components only, not on its roots, so every forest of X - F_j gives
    the same entry apart from `parent`."""
    parent, merges = _merge(start[:], merge_rows, full)
    ends = instance.edge_rows
    label = {}
    if instance.problem == "mst":
        target = components - merges     # components left to merge into one
        trivial = target == 1
    else:
        target = (_label(parent, label, instance.s), _label(parent, label, instance.t))
        trivial = target[0] == target[1]
    if trivial:     # X - F_j already meets it, so every X - S does
        return None
    rows = tuple((e, _label(parent, label, ends[e][1]), _label(parent, label, ends[e][2]))
                 for e in sorted(full & x))
    return rows, len(label), target, parent


class Feasibility:
    """The requirement on (V, X - S) for every S inside one scenario.

    For each scenario F_j the table keeps a list-based union-find of
    (V, X - F_j) and labels its components, but only those a query can
    touch: the components of the endpoints of the edges in F_j & X, and
    of s and t.  For S within F_j the components of X - S are these
    joined by the surviving edges of (F_j & X) - S, an O(k) union over the
    labels.  `cut(j, S)` reads the requirement from that union and, where
    it fails, counts the components.  `failures(size)` owns the question
    every caller asks, which failures of `size` edges break the
    requirement: it asks `cut` once per subset and keeps each size's
    answer, counts included.  The labels serve these unions only; no
    caller reads a node's component.  A scenario where X - F_j already
    meets the requirement is trivial and keeps nothing.

    One loop builds every scenario, through `_label_scenario`: copy a
    start forest, merge rows outside F_j, label.  Builds differ only in
    the start and the rows.  `Feasibility(instance, x)` starts from one
    base forest of the X edges in no scenario and merges X & U (U the union
    of the scenarios), O(n + |X & U|) per scenario.  Given `_kept`, a table
    of a proper subset of X (only `Instance.feasibility` passes one), each
    non-trivial scenario starts from its forest there and merges the added
    edges; a trivial one stays trivial, since adding edges never breaks the
    requirement.  No build changes an existing table, and a table holds no
    reference to the instance.
    """

    __slots__ = ("x", "_mst", "_full", "_scenarios", "_failures")

    def __init__(self, instance, x, _kept=None):
        self.x = x = frozenset(x)
        self._mst = instance.problem == "mst"
        self._full = instance.scenario_sets
        self._failures = {}     # size -> the answer of `failures(size)`
        n, ends = instance.node_count, instance.edge_rows
        if _kept is None:
            touched = frozenset().union(*self._full)
            base, base_merges = _merge(list(range(n)), [ends[e] for e in x - touched])
            starts = [(base, n - base_merges)] * len(self._full)
            rows = [ends[e] for e in x & touched]
        else:   # a non-trivial entry's target is its component count for 'mst'
            starts = [entry and (entry[3], entry[2]) for entry in _kept._scenarios]
            rows = [ends[e] for e in sorted(x - _kept.x)]
        self._scenarios = tuple(start and _label_scenario(instance, x, full, *start, rows)
                                for full, start in zip(self._full, starts))

    def cut(self, j, removed):
        """None iff the requirement holds on (V, X - S) for S = `removed`,
        which must lie inside scenario j; otherwise the number of labelled
        components of X - S."""
        scenario = self._scenarios[j]
        if scenario is None:
            return None
        rows, size, target, _ = scenario
        parent, merges = _merge(list(range(size)), rows, removed)
        if self._mst:
            if target - merges == 1:
                return None
        elif _find(parent, target[0]) == _find(parent, target[1]):
            return None
        return size - merges

    def failures(self, size):
        """{S: (j, count)} for each min(size, |F_j & X|)-subset S of an F_j & X
        whose removal breaks the requirement (an edge outside X removes
        nothing), in scenario, then `combinations`, order: j is the first
        scenario holding S and count what `cut(j, S)` returned.  X - S does
        not depend on j, so each S is asked once, and each size once per
        table.  A subset no larger than a size answered empty holds: it is
        not asked."""
        found = self._failures.get(size)
        if found is None:
            clean = max([-1] + [done for done, answer in self._failures.items() if not answer])
            first = {}      # subset -> the first scenario that holds it
            for j, full in enumerate(self._full):
                live = sorted(full & self.x)
                if min(size, len(live)) > clean:
                    for sub in combinations(live, min(size, len(live))):
                        first.setdefault(sub, j)
            found = self._failures[size] = {
                frozenset(sub): (j, count) for sub, j in first.items()
                if (count := self.cut(j, sub)) is not None}
        return found


@dataclass(frozen=True)
class FaceSet:
    """Faces of an embedding as boundary walks of (tail_node, edge_id) darts."""

    faces: tuple            # tuple of walks, each a tuple of darts
    edge_faces: dict        # edge_id -> tuple of face indices (1 or 2 entries)
    dart_face: dict         # (tail, edge_id) -> face index

    def __len__(self):
        return len(self.faces)


@dataclass(frozen=True)
class PlaneGraph:
    """Undirected multigraph with a clockwise rotation system.

    Node ids are nonnegative ints, not necessarily contiguous, so a forest
    over them is a list indexed by id; edge ids are distinct ints.  Parallel
    edges are allowed, self-loops are not.
    """

    nodes: tuple
    edges: dict             # edge_id -> (u, v, w)
    rotation: dict          # node -> tuple of incident edge ids, clockwise

    def endpoints(self, eid):
        u, v, _ = self.edges[eid]
        return u, v

    def other(self, eid, node):
        u, v, _ = self.edges[eid]
        if node == u:
            return v
        if node == v:
            return u
        raise KeyError(f"node {node} not an endpoint of edge {eid}")

    @cached_property
    def adjacency(self):
        """node -> tuple of (edge_id, other_endpoint, weight), sorted by edge id."""
        adj = {v: [] for v in self.nodes}
        for eid in sorted(self.edges):
            u, v, w = self.edges[eid]
            adj[u].append((eid, v, w))
            adj[v].append((eid, u, w))
        return {v: tuple(lst) for v, lst in adj.items()}

    @cached_property
    def faces(self):
        """The faces `trace_faces` finds, traced once per graph."""
        return self.trace_faces()

    def trace_faces(self):
        """Walk every dart once: follow an edge to its head, continue with the
        successor of the edge in the head's rotation."""
        succ = {}
        for v, rot in self.rotation.items():
            n = len(rot)
            for i, e in enumerate(rot):
                succ[(v, e)] = rot[(i + 1) % n]
        faces = []
        dart_face = {}
        for eid in sorted(self.edges):
            u, v, _ = self.edges[eid]
            for tail in (u, v):
                if (tail, eid) in dart_face:
                    continue
                walk = []
                dart = (tail, eid)
                while dart not in dart_face:
                    dart_face[dart] = len(faces)
                    walk.append(dart)
                    head = self.other(dart[1], dart[0])
                    dart = (head, succ[(head, dart[1])])
                if dart != walk[0]:
                    raise InvariantError("face walk closed on a foreign dart")
                faces.append(tuple(walk))
        # an edge's two darts: one face, or two in ascending order
        edge_faces = {e: (a,) if a == b else (a, b) if a < b else (b, a)
                      for e, (u, v, _) in self.edges.items()
                      for a, b in [(dart_face[(u, e)], dart_face[(v, e)])]}
        return FaceSet(tuple(faces), edge_faces, dart_face)

    def euler_defect(self):
        """n - m + f - 2; zero for a valid embedding of a connected graph.
        A graph without edges has one face but no dart to trace it from."""
        return len(self.nodes) - len(self.edges) + max(len(self.faces), 1) - 2

    def group(self, eids):
        """The node grouping of contracting the edges `eids`, without the
        rotation walk; returns (node_map, contracted, loops, edges).

        One union-find takes `eids` in ascending id order, as Kruskal does;
        `contracted` holds the edges it merges, and `loops` every other edge
        whose ends merged, both ascending.  Each merged group keeps its
        smallest node id, and `edges` maps every edge that is not a loop to
        its ends' groups.  With nothing to merge, `edges` is the graph's own.
        """
        parent = list(range(max(self.nodes) + 1))
        tree = tuple(e for e in sorted(eids) if _union(parent, *self.endpoints(e)))
        node_map = {n: _find(parent, n) for n in self.nodes}
        if not tree:
            return node_map, (), (), self.edges
        edges = {e: (node_map[a], node_map[b], w) for e, (a, b, w) in self.edges.items()
                 if node_map[a] != node_map[b]}
        loops = tuple(sorted(self.edges.keys() - edges.keys() - set(tree)))
        return node_map, tree, loops, edges

    def contract(self, eids):
        """Contract the edges `eids` in one pass; returns (graph, node_map,
        contracted, loops).

        `group` merges the nodes; loops are deleted.  Each merged group's
        rotation is the walk around its contracted tree: at a tree edge,
        move to the other end and go on just after that edge in its
        rotation.  The walk visits each dart of the group once and keeps the
        embedding planar.  Only callers that read faces need it; the rest
        take `group` alone.  With nothing to contract, the graph itself
        comes back.
        """
        node_map, tree, loops, edges = self.group(eids)
        if not tree:
            return self, node_map, (), ()
        rotation = {n: rot for n, rot in self.rotation.items() if node_map[n] == n}
        tree_set = set(tree)
        for root in {node_map[self.edges[e][0]] for e in tree}:
            walk, node, i = [], root, 0
            while True:
                rot = self.rotation[node]
                e = rot[i]
                if e in tree_set:
                    node = self.other(e, node)
                    rot = self.rotation[node]
                    i = rot.index(e)
                elif e in edges:
                    walk.append(e)
                i = (i + 1) % len(rot)
                if i == 0 and node == root:
                    break
            rotation[root] = tuple(walk)
        nodes = tuple(n for n in self.nodes if node_map[n] == n)
        return PlaneGraph(nodes, edges, rotation), node_map, tree, loops


@dataclass(frozen=True)
class EmbeddedSubgraph:
    """The faces a chosen edge set X induces in its graph's embedding."""

    nodes: frozenset        # nodes incident to X
    faces: FaceSet          # induced faces, walks over X darts
    edge_face: dict         # edge id in E \ X -> induced face index

    @cached_property
    def face_nodes(self):
        return tuple(frozenset(t for t, _ in walk) for walk in self.faces.faces)


class Instance:
    """A bulk-robust network design instance.

    Holds the embedded weighted multigraph, the problem kind (`st` or
    `mst`), terminals for `st`, and the explicit failure scenarios.
    Immutable after construction.  `__init__` converts each value once and
    checks it in one pass, which also builds the views the checks and the
    solve read: `edge_map` (id -> (u, v, w)), `edge_rows` (id -> (e, u, v),
    the row the union-find helpers take), `edge_ids`, `scenario_sets`, `k`
    and `graph`, whose `edges` and `rotation` are the instance's own dicts.
    """

    def __init__(self, node_count, edges, rotation, problem, s=None, t=None,
                 scenarios=()):
        self.node_count = n = int(node_count)
        self.rotation = {int(v): tuple(int(e) for e in rot) for v, rot in rotation.items()}
        if len(self.rotation) != len(rotation):     # 2 and "2", or "2" and "02"
            raise InstanceError("rotation names one node under two keys")
        self.problem = problem
        self.s = None if s is None else int(s)
        self.t = None if t is None else int(t)
        self.scenarios = tuple(tuple(int(e) for e in sc) for sc in scenarios)
        if n < 1:
            raise InstanceError("node count must be positive")
        if problem not in ("st", "mst"):
            raise InstanceError(f"unknown problem kind {problem!r}")
        rows, edge_map, edge_rows, total = [], {}, {}, 0
        incident = {}       # per node with an edge: its edge ids, in row order
        for e, u, v, w in edges:
            e, u, v, w = int(e), int(u), int(v), int(w)
            if e < 0 or e in edge_map:
                raise InstanceError(f"duplicate or negative edge id {e}")
            for x in (u, v):
                if not 0 <= x < n:
                    raise InstanceError(f"dangling node id {x} on edge {e}")
            if u == v:
                raise InstanceError(f"self-loop on edge {e}")
            if w < 0:
                raise InstanceError(f"negative weight on edge {e}")
            rows.append((e, u, v, w))
            edge_map[e] = (u, v, w)
            edge_rows[e] = (e, u, v)
            incident.setdefault(u, []).append(e)
            incident.setdefault(v, []).append(e)
            total += w
        if total > MAX_TOTAL_WEIGHT:
            raise InstanceError("total edge weight exceeds 2**53")
        self.edges, self.edge_map, self.edge_rows = tuple(rows), edge_map, edge_rows
        # n distinct keys in [0, n): bounds n by the file size before anything
        # per node is built.
        if len(self.rotation) != n or min(self.rotation) < 0 or max(self.rotation) >= n:
            raise InstanceError("rotation must list every node exactly once")
        for node, rot in self.rotation.items():
            if sorted(rot) != (expected := sorted(incident.get(node, ()))):
                raise InstanceError(
                    f"invalid rotation at node {node}: expected the incident edges "
                    f"{expected}, got {sorted(rot)}")
        if problem == "st":
            if self.s is None or self.t is None:
                raise InstanceError("problem 'st' requires terminals s and t")
            for x in (self.s, self.t):
                if not 0 <= x < n:
                    raise InstanceError(f"dangling terminal node id {x}")
            if self.s == self.t:
                raise InstanceError("terminals s and t must differ")
        elif self.s is not None or self.t is not None:
            raise InstanceError("problem 'mst' takes no terminals")
        self.edge_ids = frozenset(edge_map)
        sets = []
        for i, sc in enumerate(self.scenarios):
            if not sc:
                raise InstanceError(f"scenario {i} is empty")
            full = frozenset(sc)
            if len(full) != len(sc):
                raise InstanceError(f"scenario {i} repeats an edge id")
            for e in sc:
                if e not in self.edge_ids:
                    raise InstanceError(f"dangling edge id {e} in scenario {i}")
            sets.append(full)
        self.scenario_sets = tuple(sets)
        self.k = max(map(len, sets), default=0)
        if not requirement_met(n, edge_rows.values(), "mst", None, None):
            raise InstanceError("graph is not connected")
        self.graph = PlaneGraph(tuple(range(n)), edge_map, self.rotation)
        if self.graph.euler_defect() != 0:
            raise InstanceError("rotation system not planar (Euler check failed)")
        self.check_feasible()

    def check_feasible(self):
        """Removing any single full scenario must keep the requirement; read
        from the Feasibility table of the whole edge set."""
        if failed := self.feasibility(self.edge_ids).failures(self.k):
            j, _ = next(iter(failed.values()))
            raise InfeasibleError(
                f"infeasible instance: removing scenario {j} breaks the requirement")

    def requirement_holds(self, edge_subset):
        """Connectivity requirement on (V, edge_subset)."""
        return requirement_met(self.node_count, [self.edge_rows[e] for e in edge_subset],
                               self.problem, self.s, self.t)

    def feasibility(self, x):
        """The Feasibility table of solution X.

        The table of the last X asked for is kept, so one table serves
        every check on the same X.  When that X is a proper subset of this
        one, as from one augmentation level to the next, the new table's
        scenarios start from the kept table's forests: per non-trivial
        scenario an O(n) copy, the merges of the added edges and an O(k)
        relabel.  Otherwise every scenario starts from a fresh base forest;
        in a solve that happens twice, for the parse-time table of all
        edges and for the base solution.  The table does not refer back to
        the instance, so keeping it creates no reference cycle.
        """
        x = frozenset(x)
        table = self.__dict__.get("_feasibility")
        if table is None or table.x != x:
            kept = table if table is not None and table.x < x else None
            table = self._feasibility = Feasibility(self, x, kept)
        return table

    def weight_of(self, edge_subset):
        return sum(self.edge_map[e][2] for e in edge_subset)

    def to_dict(self):
        data = {
            "nodes": self.node_count,
            "edges": [[e, u, v, w] for e, u, v, w in self.edges],
            "rotation": {str(n): list(self.rotation[n]) for n in sorted(self.rotation)},
            "problem": self.problem,
        }
        if self.problem == "st":
            data["s"] = self.s
            data["t"] = self.t
        data["scenarios"] = [list(sc) for sc in self.scenarios]
        return data


# -- file format ---------------------------------------------------------

_TOP_KEYS = {"nodes", "edges", "rotation", "problem", "s", "t", "scenarios"}


def is_int_rows(value, width=None):
    """True iff a parsed JSON value is an array of integer arrays, each `width`
    long when given.  Bools and floats are not integers."""
    return (type(value) is list and set(map(type, value)) <= {list}
            and set(map(type, chain.from_iterable(value))) <= {int}
            and (width is None or set(map(len, value)) <= {width}))


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is an error, not overwritten."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} appears twice in one object")
        data[key] = value
    return data


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_instance(data):
    """Parse the JSON instance format into a validated Instance."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = _DECODER.decode(data)
        except ValueError as exc:   # bad JSON, or an integer over Python's digit limit
            raise InstanceError(f"malformed instance file: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InstanceError(f"unknown keys in instance file: {sorted(unknown)}")
    for key in ("nodes", "edges", "rotation", "problem"):
        if key not in data:
            raise InstanceError(f"missing key {key!r}")
    if type(data["nodes"]) is not int:
        raise InstanceError("nodes must be an integer")
    edges = data["edges"]
    if not is_int_rows(edges, 4):
        raise InstanceError("edges must be a list of [id, u, v, w] integer rows")
    try:
        rotation, spelled = {}, []
        for key, rot in data["rotation"].items():
            rotation[node := int(key)] = rot
            if str(node) != key:    # "02", "+2", " 2": one node, two spellings
                spelled.append(key)
        if not is_int_rows(list(rotation.values())):
            raise ValueError
    except (AttributeError, ValueError):
        raise InstanceError("rotation must map node ids to edge id lists") from None
    if spelled:
        raise InstanceError(f"rotation key {spelled[0]!r} is not a canonical node id")
    if any(data.get(key) is not None and type(data[key]) is not int for key in ("s", "t")):
        raise InstanceError("terminals s and t must be integer node ids")
    scenarios = data.get("scenarios", [])
    if not is_int_rows(scenarios):
        raise InstanceError("scenarios must be a list of edge id lists")
    return Instance(
        node_count=data["nodes"],
        edges=edges,
        rotation=rotation,
        problem=data["problem"],
        s=data.get("s"),
        t=data.get("t"),
        scenarios=scenarios,
    )


def serialize_instance(instance):
    """Canonical, byte-stable JSON text for an instance."""
    return json.dumps(instance.to_dict(), indent=1) + "\n"


# -- face machinery -------------------------------------------------------

def induced_faces(graph, chosen):
    """Faces of the subgraph (V[X], X) induced by the PlaneGraph's embedding.

    Computed by union-find over parent faces (merging the two sides of
    every unchosen edge), with the boundary walks recovered by tracing the
    rotation system restricted to X.  Every unchosen edge is assigned to
    the induced face containing it.
    """
    chosen = frozenset(chosen)
    if not chosen:
        raise ValueError("chosen edge set must be nonempty")
    if missing := chosen - graph.edges.keys():
        raise KeyError(f"unknown edge ids {sorted(missing)}")
    sub_nodes = frozenset(n for e in chosen for n in graph.endpoints(e))
    _, merges = _merge(list(range(max(sub_nodes) + 1)),
                       [(e, *graph.endpoints(e)) for e in chosen])
    if merges != len(sub_nodes) - 1:
        raise InstanceError("chosen edge set is disconnected")

    parent_faces = graph.faces
    parent = list(range(len(parent_faces)))
    classes = len(parent_faces)
    rest = sorted(graph.edges.keys() - chosen)
    for e in rest:
        fs = parent_faces.edge_faces[e]
        classes -= _union(parent, fs[0], fs[-1])

    restricted = PlaneGraph(
        tuple(sorted(sub_nodes)),
        {e: graph.edges[e] for e in chosen},
        {n: tuple(e for e in graph.rotation[n] if e in chosen) for n in sorted(sub_nodes)},
    )
    walks = restricted.trace_faces()

    class_to_face = {}
    for idx, walk in enumerate(walks.faces):
        cls = _find(parent, parent_faces.dart_face[walk[0]])
        if cls in class_to_face:
            raise InvariantError("two induced faces share a parent-face class")
        class_to_face[cls] = idx
    if len(class_to_face) != classes:
        raise InvariantError("induced face count does not match merged classes")

    edge_face = {}
    for e in rest:
        cls = _find(parent, parent_faces.edge_faces[e][0])
        edge_face[e] = class_to_face[cls]
    return EmbeddedSubgraph(sub_nodes, walks, edge_face)
