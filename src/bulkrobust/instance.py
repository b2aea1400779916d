"""Embedded planar multigraph instances and the JSON instance format.

A graph is stored combinatorially: node ids, edges with distinct integer
ids, and a rotation system (per node, the cyclic clockwise order of
incident edge ids).  The rotation system *is* the embedding; validity is
checked through Euler's formula, never by planarity testing.  `Instance`
checks its input in one pass, which also builds the edge views the solve
reads; its `graph` shares the instance's dicts.  Its values are Python
ints, as parse has just checked them and the generators build them; it
converts none.  Parse reads each rotation once, into the face successor of
every integer dart (`dart_successors`), and its Euler check counts that
permutation's cycles (`count_cycles`), so it traces no face walk.  That
permutation owns face walks: each `PlaneGraph` builds it once (`darts`;
the instance graph's is parse's), `trace_faces` walks its cycles,
restricted to chosen edges by stepping past the others, and `contract`
walks it around each merged group.  `faces` is traced on first read.

Contraction has two parts: `PlaneGraph.group` merges the nodes, and
`PlaneGraph.contract` calls it and then walks the darts.  The walk runs
only where faces are read; a caller that needs the groups alone takes
`group`.

The package's one union-find is a list indexed by node (or face) id, run
by `_find`, `_union` and `_merge`; `requirement_met` reads the requirement
from it.  Both take edge-map rows (u, v, w), so every caller hands over the
rows it holds.  `Feasibility` runs it once per solution X, to give each
edge of X its vector in the GF(2) cycle space of X; every question on X - S
is then a rank of at most k vectors (its docstring gives the argument).  A
table is built from an edge map, so the generators' scenario sampling asks
one too, and hands it to the instance it builds as the proof of its
connectivity and feasibility checks (`Instance`'s `_proof`): each
generated graph gets one table of all edges, parsed text its own.

`serialize_instance` writes the canonical layout, the bytes of
`json.dumps(instance.to_dict(), indent=1) + "\n"`, directly: one string
join with one `%` format per edge row, not json's pure-Python indenting
encoder.  `to_dict` stays the reference it is checked against.
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


def _merge(parent, rows):
    """Union the edge-map rows (u, v, w) into the list-based forest `parent`;
    returns (parent, merges)."""
    merges = 0
    for u, v, _ in rows:        # _find inlined: this loop is the hot path
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
            merges += 1
    return parent, merges


def requirement_met(node_count, rows, problem, s, t):
    """The requirement on nodes 0..node_count-1 joined by the edge-map rows
    (u, v, w): s and t in one component for 'st', all nodes in one for
    'mst'."""
    parent, merges = _merge(list(range(node_count)), rows)
    if problem == "mst":
        return merges == node_count - 1
    return _find(parent, s) == _find(parent, t)


class Feasibility:
    """The requirement on (V, X - S) for every S inside one scenario, read
    from the GF(2) cycle space of X.

    Give every edge of X a vector with one bit per cycle of a cycle basis:
    fix a spanning forest of X, give each non-tree edge its own bit, and
    each tree edge the XOR of the bits of the non-tree edges whose cycle
    through the forest crosses it.  These vectors represent the cographic
    matroid of X, so a set S of X edges has rank r(S) = |S| minus the
    number of components its removal adds:

        c(X - S) = c(X) + |S| - r(S).

    For 'mst' the requirement holds on X - S iff c(X) = 1 and r(S) = |S|.
    For 'st', when s and t are joined in X, a virtual edge (s, t) takes the
    top bit: s and t are apart in X - S iff that edge is a bridge of
    X + (s, t) - S, i.e. iff its vector, the top bit alone, lies in the
    span of S's vectors.  Then S's rank over X alone is r(S) - 1, since the
    span loses exactly that vector when the top bit is dropped.

    Where the requirement fails, `cut(j, S)` counts the components of
    X - S that hold s, t or an end of an edge of F_j & X.  The other
    components of X are untouched by S, so the count is
    |S| - r_X(S) + sigma_j, where sigma_j counts the components of X that
    hold those nodes: 1 when X is connected, otherwise found the first time
    scenario j fails.  `failures(size)` owns the question every caller
    asks, which failures of `size` edges break the requirement: it asks
    `cut` once per subset and keeps each size's answer, counts included,
    and each scenario's sorted F_j & X, kept as a tuple on its first call;
    an F_j & X no larger than the size is its own one subset, and builds
    no `combinations`.  `connected` says whether X joins every node; parse
    reads it as its connectivity check.  `holds` says whether X itself
    meets the requirement: `connected` for 'mst', s and t joined (the top
    bit taken) for 'st'.  A table whose X holds has answered size 0, empty.

    The build reads an edge map, not an instance: the node count,
    `edge_map` (id -> (u, v, w)), the problem and its terminals, the
    `removable` edges U, the `scenarios` F_j (each inside U) and X.
    `Instance.feasibility` passes its own views (U = `Instance.touched`, the
    union of the scenarios); the generators ask about candidate scenarios
    through a table with X = U = every edge, which then answers the
    instance's checks.  One build serves every scenario.  `_merge` takes
    the X edges outside U into a base forest, and each X & U edge is read
    as a row between base roots, its ends' `_find` inlined.  One union-find
    over those rows gives the spanning forest, and one walk over it gives
    every tree edge its vector.  Edges outside U are never removed, so they
    need no vector.  A query is an elimination of at most k vectors over a
    pivot dict keyed by `bit_length`.  No build changes an existing table,
    and a table holds no reference to the instance.
    """

    __slots__ = ("x", "connected", "holds", "_full", "_ends", "_terminals", "_parent",
                 "_vectors", "_top", "_sigma", "_failures", "_live")

    def __init__(self, node_count, edge_map, problem, s, t, removable, scenarios, x):
        self.x = x = frozenset(x)
        self._full = scenarios
        self._ends = ends = edge_map
        self._live = None       # j -> the tuple sorted(F_j & X), from the first `failures` call
        # the base forest: the X edges outside U, never removed
        parent, merges = _merge(list(range(node_count)), map(ends.__getitem__, x - removable))
        rows = []       # (e, a, b): the X & U edges between base roots
        for e in x & removable:     # `_find` inlined; the base forest is final
            a, b, _ = ends[e]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            rows.append((e, a, b))
        terminals = ()      # the base roots of s and t
        if problem == "st":
            terminals = (_find(parent, s), _find(parent, t))
        vectors, spin, tree, bit = {}, {}, {}, 1    # spin: node -> XOR of its non-tree bits
        for e, a, b in rows:
            ra, rb = a, b       # _find inlined, as in `_merge`
            while parent[ra] != ra:
                parent[ra] = ra = parent[parent[ra]]
            while parent[rb] != rb:
                parent[rb] = rb = parent[parent[rb]]
            if ra != rb:
                parent[rb] = ra
                merges += 1
                tree.setdefault(a, []).append((e, b))
                tree.setdefault(b, []).append((e, a))
            else:
                vectors[e] = bit
                spin[a] = spin.get(a, 0) ^ bit
                spin[b] = spin.get(b, 0) ^ bit
                bit <<= 1
        self._top = 0
        if terminals and _find(parent, terminals[0]) == _find(parent, terminals[1]):
            self._top = bit     # the virtual edge (s, t), above every other bit
            for node in terminals:
                spin[node] = spin.get(node, 0) ^ bit
        # Per tree of the forest: breadth first from a root, then leaves up,
        # each tree edge taking the XOR of the non-tree bits below it.
        seen = set()
        for root in tree:
            if root in seen:
                continue
            seen.add(root)
            walk = [(root, None, None)]     # (node, node above, edge between)
            for node, _, _ in walk:         # the walk grows as it is read
                for e, other in tree[node]:
                    if other not in seen:
                        seen.add(other)
                        walk.append((other, node, e))
            for node, up, e in reversed(walk[1:]):
                vectors[e] = below = spin.get(node, 0)
                spin[up] = spin.get(up, 0) ^ below
        self._terminals, self._parent, self._vectors = terminals, parent, vectors
        self.connected = merges == node_count - 1   # X spans the nodes in one component
        self.holds = self._top != 0 if terminals else self.connected
        # size -> the answer of `failures(size)`; X itself is the one 0-subset
        self._failures = {0: {}} if self.holds else {}
        # j -> sigma_j, once j fails; one component holds every node of a connected X
        self._sigma = [1 if self.connected else None] * len(scenarios)

    def cut(self, j, removed):
        """None iff the requirement holds on (V, X - S) for S = `removed`,
        which must lie inside scenario j; otherwise the number of
        components of X - S that hold s, t or an end of an F_j & X edge."""
        vectors = self._vectors
        pivots, size = {}, 0    # leading bit -> the vector that holds it
        for e in removed:
            v = vectors.get(e)
            if v is None:       # outside X: removes nothing
                continue
            size += 1
            while v:
                lead = v.bit_length()
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = v
                    break
                v ^= pivot
        rank = len(pivots)
        if self._terminals:
            top = self._top
            while top:      # reduce the top bit; a remainder is outside the span
                pivot = pivots.get(top.bit_length())
                if pivot is None:
                    return None
                top ^= pivot
            if self._top:
                rank -= 1       # over X alone, the top bit's vector drops out
        elif self.connected and rank == size:
            return None
        sigma = self._sigma[j]
        if sigma is None:
            parent, ends = self._parent, self._ends
            roots = {_find(parent, node) for node in self._terminals}
            for e in self._full[j]:
                if e in vectors:    # in X; its ends share a component
                    roots.add(_find(parent, ends[e][0]))
            sigma = self._sigma[j] = len(roots)
        return size - rank + sigma

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
            live_sets = self._live
            if live_sets is None:
                x = self.x
                live_sets = self._live = [tuple(sorted(full & x)) for full in self._full]
            first = {}      # subset -> the first scenario that holds it
            for j, live in enumerate(live_sets):
                if len(live) <= size:   # its one subset is the live set itself
                    if len(live) > clean:
                        first.setdefault(live, j)
                elif size > clean:
                    for sub in combinations(live, size):
                        first.setdefault(sub, j)
            cut = self.cut
            found = self._failures[size] = {
                frozenset(sub): (j, count) for sub, j in first.items()
                if (count := cut(j, sub)) is not None}
        return found


def dart_successors(rotation, edge_map):
    """The face successor of every dart, from one pass over the rotation, or
    None when the rotation is invalid.

    Dart 2i leaves u and dart 2i + 1 leaves v along the i-th edge of
    `edge_map` (id -> (u, v, w), in row order); phi[d] is the dart after
    d ^ 1 in its tail's rotation, the dart that follows d on its face walk
    (`PlaneGraph.darts`).  The rotation is valid iff each node
    lists each of its incident edges once: every entry is an edge at that
    node, and the entries set all 2m darts, as many as there are, so none
    twice.
    """
    index = {e: 2 * i for i, e in enumerate(edge_map)}
    phi, filled = [-1] * (2 * len(index)), 0
    try:
        for node, rot in rotation.items():
            if not rot:
                continue
            e = rot[-1]
            prev = index[e] + (edge_map[e][0] != node)
            for e in rot:
                u, v, _ = edge_map[e]
                d = index[e]
                if u != node:
                    if v != node:
                        return None     # an edge that does not meet the node
                    d += 1
                phi[prev ^ 1] = prev = d
            filled += len(rot)
    except KeyError:        # an edge id no row holds
        return None
    return phi if filled == len(phi) and -1 not in phi else None


def count_cycles(phi):
    """The number of cycles of the permutation phi, a list of dart ids; the
    faces, when phi comes from `dart_successors`.  phi is only read: the
    instance graph keeps parse's as its `darts`."""
    seen, cycles = bytearray(len(phi)), 0
    for d in range(len(phi)):
        if not seen[d]:
            cycles += 1
            while not seen[d]:
                seen[d], d = 1, phi[d]
    return cycles


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
    def darts(self):
        """`dart_successors` of the graph, built on first read (an instance's
        graph holds parse's); InvariantError on an invalid rotation."""
        phi = dart_successors(self.rotation, self.edges)
        if phi is None:
            raise InvariantError("rotation is not a permutation of the graph's darts")
        return phi

    @cached_property
    def faces(self):
        """The faces `trace_faces` finds, traced once per graph, on first
        read: parse counts faces without tracing them."""
        return self.trace_faces()

    def trace_faces(self, chosen=None):
        """The faces of the embedding, or of the `chosen` edges alone under
        the rotation restricted to them.  Every dart of those edges is walked
        once, from the edges in ascending id order, u's dart first.  A walk
        follows `darts`, and past an unchosen edge's dart d to phi[d ^ 1],
        the next edge in the head's rotation."""
        phi, edges = self.darts, self.edges
        ids = tuple(edges)
        index = dict(zip(ids, range(0, 2 * len(ids), 2)))
        if chosen is None:
            chosen = edges
        keep = [e in chosen for e in ids]       # edge index -> chosen
        face_of = [-1] * len(phi)
        faces = []
        for start in (d for e in sorted(chosen) for d in (index[e], index[e] + 1)):
            if face_of[start] >= 0:
                continue
            walk, d = [], start
            while face_of[d] < 0:
                face_of[d] = len(faces)
                e = ids[d >> 1]
                walk.append((edges[e][d & 1], e))
                d = phi[d]
                while not keep[d >> 1]:
                    d = phi[d ^ 1]
            faces.append(tuple(walk))
        dart_face = {dart: f for f, walk in enumerate(faces) for dart in walk}
        # an edge's two darts: one face, or two in ascending order
        edge_faces = {e: (a,) if a == b else (a, b) if a < b else (b, a)
                      for e in chosen for a, b in [face_of[index[e]:index[e] + 2]]}
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
        rotation is the walk around its contracted tree, from its root's
        first dart: over a tree edge's dart d to phi[d], and past any other
        edge's to phi[d ^ 1], the next edge at the same node.  The walk visits
        each dart leaving the group once and keeps the embedding planar.
        Only callers that read faces need it; the rest take `group` alone.
        With nothing to contract, the graph itself comes back.
        """
        node_map, tree, loops, edges = self.group(eids)
        if not tree:
            return self, node_map, (), ()
        phi, ends = self.darts, self.edges
        ids = tuple(ends)
        index = dict(zip(ids, range(0, 2 * len(ids), 2)))
        tree_set = set(tree)
        rotation = {n: rot for n, rot in self.rotation.items() if node_map[n] == n}
        for root in {node_map[ends[e][0]] for e in tree}:
            e = self.rotation[root][0]
            walk, d = [], index[e] + (ends[e][0] != root)
            start = d
            while True:
                e = ids[d >> 1]
                if e in edges:      # neither a tree edge nor a loop
                    walk.append(e)
                d = phi[d] if e in tree_set else phi[d ^ 1]
                if d == start:
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
    Immutable after construction.  Every value is a Python int, as parse
    checks them and the generators build them, and none is converted; the
    edge rows may be lists or tuples, and `rotation` maps int node ids to
    edge id sequences.  The values are checked in one pass, which also
    builds the views the checks and the solve read: `edge_map` (id ->
    (u, v, w), the rows the union-find helpers and `Feasibility` take),
    `edge_ids`, `scenario_sets`, `touched` (the union of the scenarios),
    `k` and `graph`, whose `edges` and `rotation` are the instance's own
    dicts.  The rotation check and the Euler check share one pass over the
    rotation (`dart_successors`); the Euler check counts the successor's
    cycles and traces no face, so `graph.faces` is traced on its first
    read, from that same permutation (`graph.darts`).  One `Feasibility`
    table of all edges answers both the connectivity check and
    `check_feasible`.

    A generator passes the table its scenario sampling asked as the
    keyword-only `_proof` (X = every edge, every edge removable).  It
    accepted each scenario F_j on `cut(0, F_j) is None`, and every F_j is
    no larger than k, so `check_feasible`'s `failures(k)` would ask exactly
    those questions again.  The instance then reads `connected` from that
    table and builds and asks none of its own; every other check still
    runs.  It keeps no table, so `feasibility(edge_ids)` builds one on its
    first call.
    """

    def __init__(self, node_count, edges, rotation, problem, s=None, t=None,
                 scenarios=(), *, _proof=None):
        self.node_count = n = node_count
        self.rotation = {v: tuple(rot) for v, rot in rotation.items()}
        self.problem, self.s, self.t = problem, s, t
        self.scenarios = tuple(map(tuple, scenarios))
        if n < 1:
            raise InstanceError("node count must be positive")
        if problem not in ("st", "mst"):
            raise InstanceError(f"unknown problem kind {problem!r}")
        rows, edge_map, total = [], {}, 0
        for e, u, v, w in edges:
            if e < 0 or e in edge_map:
                raise InstanceError(f"duplicate or negative edge id {e}")
            if not 0 <= u < n > v >= 0:
                raise InstanceError(f"dangling node id {v if 0 <= u < n else u} on edge {e}")
            if u == v:
                raise InstanceError(f"self-loop on edge {e}")
            if w < 0:
                raise InstanceError(f"negative weight on edge {e}")
            rows.append((e, u, v, w))
            edge_map[e] = (u, v, w)
            total += w
        if total > MAX_TOTAL_WEIGHT:
            raise InstanceError("total edge weight exceeds 2**53")
        self.edges, self.edge_map = tuple(rows), edge_map
        rotation = self.rotation
        # n distinct keys in [0, n): bounds n by the file size before anything
        # per node is built.  A key that is not a number, such as "0", fails
        # the comparison.
        try:
            keyed = len(rotation) == n and 0 <= min(rotation) and max(rotation) < n
        except TypeError:
            keyed = False
        if not keyed:
            raise InstanceError("rotation must list every node exactly once")
        phi = dart_successors(rotation, edge_map)
        if phi is None:     # name the first bad node, in rotation order
            incident = {}
            for e, u, v, _ in rows:
                incident.setdefault(u, []).append(e)
                incident.setdefault(v, []).append(e)
            for node, rot in rotation.items():
                if sorted(rot) != (expected := sorted(incident.get(node, ()))):
                    raise InstanceError(
                        f"invalid rotation at node {node}: expected the incident edges "
                        f"{expected}, got {sorted(rot)}")
            raise InvariantError("the dart check and the rotation check disagree")
        if problem == "st":
            if s is None or t is None:
                raise InstanceError("problem 'st' requires terminals s and t")
            if not 0 <= s < n > t >= 0:
                raise InstanceError(f"dangling terminal node id {t if 0 <= s < n else s}")
            if s == t:
                raise InstanceError("terminals s and t must differ")
        elif s is not None or t is not None:
            raise InstanceError("problem 'mst' takes no terminals")
        self.edge_ids = edge_ids = frozenset(edge_map)
        sets = []
        for i, sc in enumerate(self.scenarios):
            if not sc:
                raise InstanceError(f"scenario {i} is empty")
            full = frozenset(sc)
            if len(full) != len(sc):
                raise InstanceError(f"scenario {i} repeats an edge id")
            if not full <= edge_ids:
                e = next(e for e in sc if e not in edge_ids)
                raise InstanceError(f"dangling edge id {e} in scenario {i}")
            sets.append(full)
        self.scenario_sets = tuple(sets)
        self.touched = frozenset().union(*sets)
        self.k = max(map(len, sets), default=0)
        if _proof is None:
            table = self.feasibility(edge_ids)
        elif _proof.x != edge_ids:
            raise InvariantError("the sampling table is not of the instance's edges")
        else:
            table = _proof
        if not table.connected:
            raise InstanceError("graph is not connected")
        self.graph = PlaneGraph(tuple(range(n)), edge_map, self.rotation)
        vars(self.graph)["darts"] = phi     # parse's permutation: the graph builds none
        if n - len(rows) + max(count_cycles(phi), 1) - 2 != 0:     # as `euler_defect`
            raise InstanceError("rotation system not planar (Euler check failed)")
        if _proof is None:
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
        return requirement_met(self.node_count, [self.edge_map[e] for e in edge_subset],
                               self.problem, self.s, self.t)

    def feasibility(self, x):
        """The Feasibility table of solution X.

        The table of the last X asked for is kept, so one table serves
        every check on the same X; any other X gets a fresh table, one
        forest pass over X.  In a solve that is one table per distinct X:
        the parse-time table of all edges (a generated instance keeps
        none), the base solution's and one per level that adds edges.  The
        table does not refer back to the instance, so keeping it creates no
        reference cycle.
        """
        x = frozenset(x)
        table = self.__dict__.get("_feasibility")
        if table is None or table.x is not x and table.x != x:
            table = self._feasibility = Feasibility(
                self.node_count, self.edge_map, self.problem, self.s, self.t,
                self.touched, self.scenario_sets, x)
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


_EDGE_ROW = "[\n   %d,\n   %d,\n   %d,\n   %d\n  ]"      # an edge row, at depth 2


def _ints(values):
    """A list of ints at depth 2, as `json.dumps(indent=1)` writes it."""
    return "[\n   " + ",\n   ".join(map(str, values)) + "\n  ]" if values else "[]"


def _block(items, depth, brackets="[]"):
    """Formatted items as `json.dumps(indent=1)` lays out a list, or with
    brackets "{}" an object, whose items sit at `depth`."""
    if not items:
        return brackets
    pad = "\n" + " " * depth
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


def serialize_instance(instance):
    """Canonical, byte-stable JSON text for an instance: the bytes of
    `json.dumps(instance.to_dict(), indent=1) + "\n"`, written directly
    with one `%` format per edge row, since json's indenting encoder runs
    in pure Python."""
    rotation = instance.rotation
    fields = ['"nodes": %d' % instance.node_count,
              '"edges": ' + _block([_EDGE_ROW % row for row in instance.edges], 2),
              '"rotation": ' + _block(['"%d": %s' % (n, _ints(rotation[n]))
                                       for n in sorted(rotation)], 2, "{}"),
              '"problem": ' + json.dumps(instance.problem)]
    if instance.problem == "st":
        fields += ['"s": %d' % instance.s, '"t": %d' % instance.t]
    fields.append('"scenarios": ' + _block(list(map(_ints, instance.scenarios)), 2))
    return _block(fields, 1, "{}") + "\n"


# -- face machinery -------------------------------------------------------

def induced_faces(graph, chosen):
    """Faces of the subgraph (V[X], X) induced by the PlaneGraph's embedding.

    Computed by union-find over parent faces (merging the two sides of
    every unchosen edge), with the boundary walks recovered by the graph's
    own trace restricted to X (`trace_faces(chosen)`).  Every unchosen edge
    is assigned to the induced face containing it.
    """
    chosen = frozenset(chosen)
    if not chosen:
        raise ValueError("chosen edge set must be nonempty")
    if missing := chosen - graph.edges.keys():
        raise KeyError(f"unknown edge ids {sorted(missing)}")
    sub_nodes = frozenset(n for e in chosen for n in graph.endpoints(e))
    _, merges = _merge(list(range(max(sub_nodes) + 1)), [graph.edges[e] for e in chosen])
    if merges != len(sub_nodes) - 1:
        raise InstanceError("chosen edge set is disconnected")

    parent_faces = graph.faces
    parent = list(range(len(parent_faces)))
    classes = len(parent_faces)
    rest = sorted(graph.edges.keys() - chosen)
    for e in rest:
        fs = parent_faces.edge_faces[e]
        classes -= _union(parent, fs[0], fs[-1])

    walks = graph.trace_faces(chosen)

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
