"""Embedded planar multigraph instances and the JSON instance format.

A graph is stored combinatorially: node ids, edges with distinct integer
ids, and a rotation system (per node, the cyclic clockwise order of
incident edge ids).  The rotation system *is* the embedding; validity is
checked through Euler's formula after face tracing, never by planarity
testing.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import InfeasibleError, InstanceError, InvariantError


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def same(self, a, b):
        return self.find(a) == self.find(b)

    def component_count(self):
        return len({self.find(x) for x in self.parent})

    def components(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return [groups[r] for r in sorted(groups)]


def connected_under(nodes, edge_endpoints):
    """True iff all of `nodes` lie in one component of the given edges."""
    nodes = list(nodes)
    if len(nodes) <= 1:
        return True
    uf = UnionFind(nodes)
    for u, v in edge_endpoints:
        uf.union(u, v)
    return uf.component_count() == 1


def same_component(a, b, edge_endpoints, nodes):
    uf = UnionFind(nodes)
    for u, v in edge_endpoints:
        uf.union(u, v)
    return uf.same(a, b)


def _find(parent, x):
    """Root of x in a list-based union-find, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _label(parent, label, node):
    """Small consecutive label of node's component, numbered on first sight."""
    return label.setdefault(_find(parent, node), len(label))


class Feasibility:
    """The requirement on (V, X - S) for every S inside one scenario.

    Built once per solution X: for each scenario F_j a list-based
    union-find labels the components of (V, X - F_j), O(n + |X|).  Only
    the labels that a query can touch are kept: those of the endpoints of
    the edges in F_j & X, and of s and t.  `holds(j, S)` for S within F_j
    then unions the surviving edges of (F_j & X) - S over those labels,
    which is O(k).  Holds no reference to the instance.
    """

    __slots__ = ("x", "_mst", "_scenarios")

    def __init__(self, instance, x):
        self.x = x = frozenset(x)
        self._mst = instance.problem == "mst"
        n = instance.node_count
        ends = instance.edge_map
        x_rows = [(e, ends[e][0], ends[e][1]) for e in x]
        scenarios = []
        for full in instance.scenario_sets:
            parent = list(range(n))
            merges = 0
            for e, u, v in x_rows:      # _find inlined: this loop is the hot path
                if e in full:
                    continue
                while parent[u] != u:
                    parent[u] = u = parent[parent[u]]
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                if u != v:
                    parent[v] = u
                    merges += 1
            label = {}
            if self._mst:
                target = n - merges     # components left to merge into one
                trivial = target == 1
            else:
                target = (_label(parent, label, instance.s),
                          _label(parent, label, instance.t))
                trivial = target[0] == target[1]
            if trivial:     # X - F_j already meets it, so every X - S does
                scenarios.append(None)
                continue
            rows = tuple((e, _label(parent, label, ends[e][0]),
                          _label(parent, label, ends[e][1]))
                         for e in sorted(full & x))
            scenarios.append((rows, len(label), target))
        self._scenarios = tuple(scenarios)

    def holds(self, j, removed):
        """True iff the requirement holds on (V, X - S) for S = `removed`,
        which must lie inside scenario j."""
        scenario = self._scenarios[j]
        if scenario is None:
            return True
        rows, size, target = scenario
        parent = list(range(size))
        merges = 0
        for e, a, b in rows:
            if e in removed:
                continue
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[rb] = ra
                merges += 1
        if self._mst:
            return target - merges == 1
        return _find(parent, target[0]) == _find(parent, target[1])


@dataclass(frozen=True)
class FaceSet:
    """Faces of an embedding as boundary walks of (tail_node, edge_id) darts."""

    faces: tuple            # tuple of walks, each a tuple of darts
    edge_faces: dict        # edge_id -> tuple of face indices (1 or 2 entries)
    dart_face: dict         # (tail, edge_id) -> face index

    def __len__(self):
        return len(self.faces)

    def walk_edges(self, face_index):
        return [e for _, e in self.faces[face_index]]


@dataclass(frozen=True)
class PlaneGraph:
    """Undirected multigraph with a clockwise rotation system.

    Node ids are arbitrary ints (not necessarily contiguous); edge ids are
    distinct ints.  Parallel edges are allowed, self-loops are not.
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

    def is_connected(self):
        return connected_under(self.nodes, ((u, v) for u, v, _ in self.edges.values()))

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
        edge_faces = {}
        for (tail, eid), f in dart_face.items():
            edge_faces.setdefault(eid, [])
            if f not in edge_faces[eid]:
                edge_faces[eid].append(f)
        edge_faces = {e: tuple(sorted(fs)) for e, fs in edge_faces.items()}
        return FaceSet(tuple(faces), edge_faces, dart_face)

    def euler_defect(self):
        """n - m + f - 2; zero for a valid embedding of a connected graph."""
        return len(self.nodes) - len(self.edges) + len(self.faces) - 2

    def contract(self, eid):
        """Contract one edge; returns (graph, node_map).

        The surviving node keeps the smaller of the two endpoint ids and its
        rotation is spliced at the removed darts so the embedding stays
        planar.  Parallel edges that turn into self-loops are deleted.
        """
        if eid not in self.edges:
            raise KeyError(f"no edge {eid}")
        u, v, _ = self.edges[eid]
        if u == v:
            raise InstanceError(f"edge {eid} is a self-loop")
        keep, drop = (u, v) if u < v else (v, u)
        rot_keep = list(self.rotation[keep])
        rot_drop = list(self.rotation[drop])
        ik = rot_keep.index(eid)
        idr = rot_drop.index(eid)
        spliced = rot_keep[:ik] + rot_drop[idr + 1:] + rot_drop[:idr] + rot_keep[ik + 1:]

        edges = {}
        loops = []
        for e, (a, b, w) in self.edges.items():
            if e == eid:
                continue
            a2 = keep if a == drop else a
            b2 = keep if b == drop else b
            if a2 == b2:
                loops.append(e)
                continue
            edges[e] = (a2, b2, w)
        spliced = [e for e in spliced if e not in loops]
        rotation = {}
        for node, rot in self.rotation.items():
            if node == drop:
                continue
            if node == keep:
                rotation[node] = tuple(spliced)
            else:
                rotation[node] = rot
        nodes = tuple(n for n in self.nodes if n != drop)
        node_map = {n: n for n in self.nodes}
        node_map[drop] = keep
        return PlaneGraph(nodes, edges, rotation), node_map, tuple(loops)


@dataclass(frozen=True)
class EmbeddedSubgraph:
    """A chosen edge set X with the faces it induces in the parent embedding."""

    graph: PlaneGraph       # parent graph (already contracted when used per step)
    chosen: frozenset       # X
    nodes: frozenset        # nodes incident to X
    faces: FaceSet          # induced faces, walks over X darts
    edge_face: dict         # edge id in E \ X -> induced face index

    @cached_property
    def face_edge_sets(self):
        return tuple(frozenset(self.faces.walk_edges(i)) for i in range(len(self.faces)))

    @cached_property
    def face_nodes(self):
        return tuple(frozenset(t for t, _ in walk) for walk in self.faces.faces)


class Instance:
    """A bulk-robust network design instance.

    Holds the embedded weighted multigraph, the problem kind (`st` or
    `mst`), terminals for `st`, and the explicit failure scenarios.
    Immutable after construction; all validation happens in __init__.
    """

    def __init__(self, node_count, edges, rotation, problem, s=None, t=None,
                 scenarios=(), precheck=True):
        self.node_count = int(node_count)
        self.edges = tuple((int(e), int(u), int(v), int(w)) for e, u, v, w in edges)
        self.rotation = {int(n): tuple(int(e) for e in rot) for n, rot in rotation.items()}
        self.problem = problem
        self.s = None if s is None else int(s)
        self.t = None if t is None else int(t)
        self.scenarios = tuple(tuple(int(e) for e in sc) for sc in scenarios)
        self._validate(precheck)

    # -- validation -----------------------------------------------------

    def _validate(self, precheck):
        if self.node_count < 1:
            raise InstanceError("node count must be positive")
        if self.problem not in ("st", "mst"):
            raise InstanceError(f"unknown problem kind {self.problem!r}")
        seen = set()
        for e, u, v, w in self.edges:
            if e < 0 or e in seen:
                raise InstanceError(f"duplicate or negative edge id {e}")
            seen.add(e)
            for x in (u, v):
                if not 0 <= x < self.node_count:
                    raise InstanceError(f"dangling node id {x} on edge {e}")
            if u == v:
                raise InstanceError(f"self-loop on edge {e}")
            if w < 0:
                raise InstanceError(f"negative weight on edge {e}")
        # n distinct keys in [0, n): bounds n by the file size before anything
        # per node is built.
        if len(self.rotation) != self.node_count or min(self.rotation) < 0 \
                or max(self.rotation) >= self.node_count:
            raise InstanceError("rotation must list every node exactly once")
        incident = {n: [] for n in range(self.node_count)}
        for e, u, v, _ in self.edges:
            incident[u].append(e)
            incident[v].append(e)
        for n, rot in self.rotation.items():
            if sorted(rot) != sorted(incident[n]):
                raise InstanceError(
                    f"invalid rotation at node {n}: expected the incident edges "
                    f"{sorted(incident[n])}, got {sorted(rot)}")
        if self.problem == "st":
            if self.s is None or self.t is None:
                raise InstanceError("problem 'st' requires terminals s and t")
            for x in (self.s, self.t):
                if not 0 <= x < self.node_count:
                    raise InstanceError(f"dangling terminal node id {x}")
            if self.s == self.t:
                raise InstanceError("terminals s and t must differ")
        elif self.s is not None or self.t is not None:
            raise InstanceError("problem 'mst' takes no terminals")
        edge_ids = set(self.edge_map)
        for i, sc in enumerate(self.scenarios):
            if not sc:
                raise InstanceError(f"scenario {i} is empty")
            if len(set(sc)) != len(sc):
                raise InstanceError(f"scenario {i} repeats an edge id")
            for e in sc:
                if e not in edge_ids:
                    raise InstanceError(f"dangling edge id {e} in scenario {i}")
        if not self.graph.is_connected():
            raise InstanceError("graph is not connected")
        if self.graph.euler_defect() != 0:
            raise InstanceError("rotation system not planar (Euler check failed)")
        if precheck:
            self.check_feasible()

    def check_feasible(self):
        """Removing any single full scenario must keep the requirement."""
        for i, sc in enumerate(self.scenario_sets):
            if not self.requirement_holds(self.edge_ids - sc):
                raise InfeasibleError(
                    f"infeasible instance: removing scenario {i} breaks the requirement")

    def requirement_holds(self, edge_subset):
        """Connectivity requirement on (V, edge_subset)."""
        ends = [self.edge_map[e][:2] for e in edge_subset]
        if self.problem == "st":
            return same_component(self.s, self.t, ends, nodes=range(self.node_count))
        return connected_under(range(self.node_count), ends)

    def feasibility(self, x):
        """The Feasibility table of solution X.

        The table of the last X asked for is kept, so one table serves
        every check on the same X.  The table does not refer back to the
        instance, so keeping it creates no reference cycle.
        """
        x = frozenset(x)
        table = self.__dict__.get("_feasibility")
        if table is None or table.x != x:
            table = self._feasibility = Feasibility(self, x)
        return table

    # -- derived views ---------------------------------------------------

    @cached_property
    def edge_map(self):
        return {e: (u, v, w) for e, u, v, w in self.edges}

    @cached_property
    def edge_ids(self):
        return frozenset(self.edge_map)

    @cached_property
    def scenario_sets(self):
        return tuple(frozenset(sc) for sc in self.scenarios)

    @cached_property
    def k(self):
        return max((len(sc) for sc in self.scenarios), default=0)

    @cached_property
    def graph(self):
        return PlaneGraph(tuple(range(self.node_count)), dict(self.edge_map),
                          dict(self.rotation))

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


def parse_instance(data):
    """Parse the JSON instance format into a validated Instance."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
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
        rotation = {int(n): rot for n, rot in data["rotation"].items()}
        if not is_int_rows(list(rotation.values())):
            raise ValueError
    except (AttributeError, ValueError):
        raise InstanceError("rotation must map node ids to edge id lists") from None
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

def trace_faces(obj):
    """Faces of an Instance or PlaneGraph; raises if the Euler check fails."""
    graph = obj.graph if isinstance(obj, Instance) else obj
    faces = graph.faces
    if len(graph.nodes) - len(graph.edges) + len(faces) != 2:
        raise InstanceError("rotation system not planar (Euler check failed)")
    return faces


def induced_faces(obj, chosen):
    """Faces of the subgraph (V[X], X) induced by the parent embedding.

    Computed by union-find over parent faces (merging the two sides of
    every unchosen edge), with the boundary walks recovered by tracing the
    rotation system restricted to X.  Every unchosen edge is assigned to
    the induced face containing it.
    """
    graph = obj.graph if isinstance(obj, Instance) else obj
    chosen = frozenset(chosen)
    if not chosen:
        raise ValueError("chosen edge set must be nonempty")
    missing = chosen - set(graph.edges)
    if missing:
        raise KeyError(f"unknown edge ids {sorted(missing)}")
    sub_nodes = frozenset(n for e in chosen for n in graph.endpoints(e))
    if not connected_under(sub_nodes, (graph.endpoints(e) for e in chosen)):
        raise InstanceError("chosen edge set is disconnected")

    parent_faces = graph.faces
    uf = UnionFind(range(len(parent_faces)))
    rest = sorted(set(graph.edges) - chosen)
    for e in rest:
        fs = parent_faces.edge_faces[e]
        if len(fs) == 2:
            uf.union(fs[0], fs[1])

    restricted = PlaneGraph(
        tuple(sorted(sub_nodes)),
        {e: graph.edges[e] for e in chosen},
        {n: tuple(e for e in graph.rotation[n] if e in chosen) for n in sorted(sub_nodes)},
    )
    walks = restricted.trace_faces()

    class_to_face = {}
    for idx, walk in enumerate(walks.faces):
        cls = uf.find(parent_faces.dart_face[walk[0]])
        if cls in class_to_face:
            raise InvariantError("two induced faces share a parent-face class")
        class_to_face[cls] = idx
    if len(class_to_face) != uf.component_count():
        raise InvariantError("induced face count does not match merged classes")

    edge_face = {}
    for e in rest:
        cls = uf.find(parent_faces.edge_faces[e][0])
        edge_face[e] = class_to_face[cls]
    return EmbeddedSubgraph(graph, chosen, sub_nodes, walks, edge_face)
