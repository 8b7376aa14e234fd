"""The digraph catalog: named families and recursive combinators.

Every constructor fixes a documented canonical vertex labeling so serialized
outputs are byte-reproducible, and attaches provenance metadata
(family name and parameters) to the returned digraph.
"""

from __future__ import annotations

from typing import Optional

from .counting import PinnedPattern
from .digraph import (
    Digraph,
    UndirectedGraph,
    are_isomorphic,
    bits,
    vertex_mask,
)

ORIENTATION_UNION_EDGE_LIMIT = 10
SUBSET_BIPARTITE_LIMIT = 16


def _label(d: Digraph, family: str, **params) -> Digraph:
    d.meta = {"family": family, "params": dict(params)}
    return d


def directed_path(k: int) -> Digraph:
    """Directed path with k edges: vertices 0..k, edges i -> i+1."""
    if k < 0:
        raise ValueError("edge count must be nonnegative")
    return _label(Digraph(k + 1, [(i, i + 1) for i in range(k)]), "directed-path", k=k)


def directed_cycle(r: int) -> Digraph:
    """Directed cycle: vertices 0..r-1, edges i -> i+1 (mod r). Requires r >= 3."""
    if r < 3:
        raise ValueError("cycle length must be at least 3")
    return _label(
        Digraph(r, [(i, (i + 1) % r) for i in range(r)]), "directed-cycle", r=r
    )


def transitive_tournament(k: int) -> Digraph:
    """Transitive pattern on 0..k-1 with i -> j for i < j."""
    if k < 0:
        raise ValueError("vertex count must be nonnegative")
    return _label(
        Digraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)]),
        "transitive-tournament",
        k=k,
    )


def transitive_minus_edge(k: int, i: int, j: int) -> Digraph:
    """Transitive pattern on [k] minus the edge (i, j); i, j are 1-indexed.

    Metadata records whether j - i == 2, the one deletion outside the
    edge-deletion family's over-representation guarantee.
    """
    if not (1 <= i < j <= k):
        raise ValueError(f"need 1 <= i < j <= k, got (k,i,j)=({k},{i},{j})")
    edges = [
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if (a, b) != (i - 1, j - 1)
    ]
    d = Digraph(k, edges)
    d.meta = {
        "family": "transitive-minus-edge",
        "params": {"k": k, "i": i, "j": j},
        "eligible": j - i != 2,
    }
    return d


def star(d_out: int, d_in: int) -> Digraph:
    """Oriented star: center 0, out-leaves 1..d_out, then d_in in-leaves."""
    if d_out < 0 or d_in < 0 or d_out + d_in < 1:
        raise ValueError("star needs at least one leaf")
    edges = [(0, i) for i in range(1, d_out + 1)]
    edges += [(d_out + i, 0) for i in range(1, d_in + 1)]
    return _label(Digraph(1 + d_out + d_in, edges), "star", d_out=d_out, d_in=d_in)


def _balanced_star_edges(labels: list[int], edges: list[tuple[int, int]]) -> None:
    k = len(labels)
    if k <= 1:
        return
    center = labels[0]
    in_size = (k - 1) // 2
    u_part = labels[1 : 1 + in_size]
    w_part = labels[1 + in_size :]
    edges.extend((u, center) for u in u_part)
    edges.extend((center, w) for w in w_part)
    _balanced_star_edges(u_part, edges)
    _balanced_star_edges(w_part, edges)


def iterated_balanced_star(k: int) -> Digraph:
    """Iterated balanced star on k vertices.

    Labeling: vertex 0 is the center; the floor((k-1)/2) in-part takes the
    next labels, the out-part the rest, recursively. Edge count is asserted
    against the closed form t(k+1) - 2^(t+1) + 2, t = max{t : 2^t <= k+1},
    which must agree with the recursion e(S_k) = k-1 + e(in) + e(out).
    """
    if k < 1:
        raise ValueError("vertex count must be at least 1")
    edges: list[tuple[int, int]] = []
    _balanced_star_edges(list(range(k)), edges)
    expected = iterated_star_edge_count(k)
    if len(edges) != expected:
        raise AssertionError(
            f"balanced-star recursion produced {len(edges)} edges, closed form says {expected}"
        )
    return _label(Digraph(k, edges), "iterated-balanced-star", k=k)


def iterated_star_edge_count(k: int) -> int:
    """Closed form for the iterated balanced star's edge count."""
    if k < 1:
        raise ValueError("vertex count must be at least 1")
    t = (k + 1).bit_length() - 1
    return t * (k + 1) - (1 << (t + 1)) + 2


def subset_bipartite(k: int) -> tuple[Digraph, tuple[int, ...]]:
    """The subset gadget: parts A (vertices 0..k-1) and B (2^k vertices).

    B-vertices are indexed by subsets of A in binary-counter order; vertex
    k+s has out-neighborhood exactly the subset s and in-neighborhood its
    complement, so e = k * 2^k. Returns (digraph, A-vertices).
    """
    if k < 1:
        raise ValueError("part size must be at least 1")
    if k > SUBSET_BIPARTITE_LIMIT:
        raise ValueError(f"subset gadget is guarded at k = {SUBSET_BIPARTITE_LIMIT}")
    full = (1 << k) - 1
    edges = []
    for s in range(1 << k):
        b = k + s
        for a in bits(s):
            edges.append((b, a))
        for a in bits(full ^ s):
            edges.append((a, b))
    d = _label(Digraph(k + (1 << k), edges), "subset-bipartite", k=k)
    return d, tuple(range(k))


def all_orientations_union(a: UndirectedGraph) -> Digraph:
    """Disjoint union of all 2^e orientations of the undirected graph a.

    Orientations are enumerated in binary-counter order over a's sorted edge
    list (bit b clear keeps edge b as (u, v) with u < v); component o occupies
    labels o*v(a) .. (o+1)*v(a)-1.
    """
    e = a.edge_count
    if e > ORIENTATION_UNION_EDGE_LIMIT:
        raise ValueError(
            f"orientation union is guarded at {ORIENTATION_UNION_EDGE_LIMIT} edges"
        )
    base_edges = a.edges()
    k = a.n
    edges = []
    for o in range(1 << e):
        off = o * k
        for b, (u, v) in enumerate(base_edges):
            if o >> b & 1:
                edges.append((off + v, off + u))
            else:
                edges.append((off + u, off + v))
    return _label(Digraph(k << e, edges), "all-orientations-union", vertices=k, edges=e)


def d_family(k: int) -> Digraph:
    """The two-layer fan: a=0, middles 1..k, b=k+1, edges a->v_i->b."""
    if k < 0:
        raise ValueError("middle count must be nonnegative")
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, k + 1) for i in range(1, k + 1)]
    return _label(Digraph(k + 2, edges), "d-family", k=k)


def cycle_with_chord(k: int) -> Digraph:
    """Directed cycle on 2k vertices plus the chord (0, k) joining a pair at
    maximum distance. Requires k odd, k >= 3."""
    if k < 3:
        raise ValueError("need k >= 3")
    if k % 2 == 0:
        raise ValueError("need k odd")
    edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    edges.append((0, k))
    return _label(Digraph(2 * k, edges), "cycle-with-chord", k=k)


def _paired_subsets(s: int, t: int) -> list[int]:
    """First t subsets of [s] in complement-paired counter order:
    (0, ~0), (1, ~1), ... For t <= 2^s every complement exceeds the counter
    values still to come, so no subset repeats."""
    full = (1 << s) - 1
    return [x for c in range((t + 1) // 2) for x in (c, full ^ c)][:t]


def unique_hom_digraph(k: int) -> Digraph:
    """The rigid k-vertex digraph admitting at most one homomorphism into any
    k-vertex tournament.

    With s = ceil(log2 k) and t = k - s - 1: A1 = 0..s-1 carries a transitive
    pattern, x = s has all of A1 pointing in and points at all of A2 =
    s+1..s+t, and the A1/A2 bipartite orientation gives the t A2-vertices
    pairwise distinct out-neighborhoods in A1 via complement-paired subsets.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    s = (k - 1).bit_length()
    t = k - s - 1  # t < k <= 2^s, the bound `_paired_subsets` needs
    if t <= 2 * s + 1:
        raise ValueError(f"precondition t > 2s+1 violated: t={t}, 2s+1={2 * s + 1}")
    full = (1 << s) - 1
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    x = s
    edges += [(v, x) for v in range(s)]
    edges += [(x, u) for u in range(s + 1, s + t + 1)]
    for i, sub in enumerate(_paired_subsets(s, t)):
        u = s + 1 + i
        for a in bits(sub):
            edges.append((u, a))
        for a in bits(full ^ sub):
            edges.append((a, u))
    return _label(Digraph(k, edges), "unique-hom-digraph", k=k, s=s, t=t)


def subdivided_star_orientation(k: int) -> Digraph:
    """Orientation of the 1-subdivision of a star with 2k arms in which the
    four orientation types of the center-anchored 2-edge paths occur equally
    often (k/2 each). Requires k even.

    Labeling: center 0; arm i (0-indexed, type i // (k//2)) has middle 1+2i
    and leaf 2+2i. Type bits: high bit flips the center edge inward, low bit
    flips the leaf edge inward.
    """
    if k < 2 or k % 2:
        raise ValueError("need k even and >= 2")
    per_type = k // 2
    edges = []
    for i in range(2 * k):
        tp = i // per_type
        c, m, leaf = 0, 1 + 2 * i, 2 + 2 * i
        edges.append((m, c) if tp & 2 else (c, m))
        edges.append((leaf, m) if tp & 1 else (m, leaf))
    return _label(Digraph(4 * k + 1, edges), "subdivided-star", k=k)


def tree_anti_orientation(r: UndirectedGraph) -> Digraph:
    """Systematically under-represented orientation of a tree with at most one
    vertex of even degree.

    Unique even-degree vertex: root there; every vertex then has an even
    number of children, which are paired ascending as (in, out) edge pairs.
    All degrees odd: the lexicographically least edge (u, v) is oriented
    u -> v and each side is handled as above, rooted at its endpoint.
    """
    if not r.is_tree():
        raise ValueError("input is not a tree")
    evens = [v for v in range(r.n) if r.degree(v) % 2 == 0]
    if len(evens) > 1:
        raise ValueError(
            f"unsupported tree: {len(evens)} vertices of even degree (at most one is supported)"
        )

    edges: list[tuple[int, int]] = []

    def orient_rooted(root: int, blocked: int) -> None:
        # pair children ascending: even position -> in-edge, odd -> out-edge
        stack = [(root, blocked)]
        while stack:
            v, parent_mask = stack.pop()
            children = sorted(bits(r.row(v) & ~parent_mask))
            for idx, c in enumerate(children):
                edges.append((c, v) if idx % 2 == 0 else (v, c))
                stack.append((c, 1 << v))

    if r.n == 1:
        return _label(Digraph(1), "tree-anti-orientation", n=1)
    if len(evens) == 1:
        orient_rooted(evens[0], 0)
    else:
        u, v = r.edges()[0]
        edges.append((u, v))
        orient_rooted(u, 1 << v)
        orient_rooted(v, 1 << u)
    return _label(Digraph(r.n, edges), "tree-anti-orientation", n=r.n)


def _extend(d1: Digraph, i_set, d2: Digraph, family: str) -> Digraph:
    members = list(bits(vertex_mask(i_set, d1.n, "designated set out of range")))
    if len(members) != d2.n:
        raise ValueError(
            f"designated set has {len(members)} vertices but the installed digraph has {d2.n}"
        )
    # equal rows make the set independent too: an edge u -> v would put v
    # in out(u) = out(v), a self-loop
    if len({(d1.out(v), d1.inn(v)) for v in members}) > 1:
        raise ValueError("the designated vertices do not share in- and out-neighborhoods")
    edges = d1.edges()
    edges += [(members[a], members[b]) for a, b in d2.edges()]
    return _label(Digraph(d1.n, edges), family)


def anti_extend(d1: Digraph, i_set, d2: Digraph) -> Digraph:
    """Install d2's edges on a homogeneous independent set of d1.

    Requires the set's vertices to share in- and out-neighborhoods, which
    makes the set independent, and |set| = v(d2); d2's vertex i lands on the
    i-th smallest member. Under-representation propagates from the two parts.
    """
    return _extend(d1, i_set, d2, "anti-extend")


def sid_extend(d1: Digraph, i_set, d2: Digraph) -> Digraph:
    """Same structural operation as anti_extend; over-representation
    propagates when both parts are over-represented."""
    return _extend(d1, i_set, d2, "sid-extend")


def glue(
    p1: PinnedPattern, p2: PinnedPattern, identification: dict[int, int]
) -> PinnedPattern:
    """Identify p1's pinned set with vertices of p2's pattern.

    The identification maps every pinned vertex of p1 injectively into
    V(p2.pattern). Labels: p2's pattern keeps 0..v2-1; the remaining p1
    vertices follow in ascending original order. The result is pinned at
    p2's pinned set.
    """
    d1, d2 = p1.pattern, p2.pattern
    i1 = set(p1.pinned_vertices)
    if set(identification) != i1:
        raise ValueError("identification must be defined on exactly p1's pinned set")
    if len(set(identification.values())) != len(identification):
        raise ValueError("identification collides two pinned vertices")
    for w in identification.values():
        if not 0 <= w < d2.n:
            raise ValueError(f"identified vertex {w} out of range")
    mapping = {}
    nxt = d2.n
    for v in range(d1.n):
        if v in i1:
            mapping[v] = identification[v]
        else:
            mapping[v] = nxt
            nxt += 1
    # p1's pinned set is independent, so each mapped edge has a fresh end
    # and can neither repeat nor reverse an edge of p2
    edges = d2.edges() + [(mapping[u], mapping[v]) for u, v in d1.edges()]
    merged = Digraph(nxt, edges)
    merged.meta = {"family": "glue", "params": {}}
    return PinnedPattern(merged, p2.pinned)


def join(d1: Digraph, d2: Digraph) -> Digraph:
    """All of d1 pointing at all of d2; d2's labels are offset by v(d1)."""
    edges = d1.edges()
    off = d1.n
    edges += [(u + off, v + off) for u, v in d2.edges()]
    edges += [(u, off + w) for u in range(d1.n) for w in range(d2.n)]
    return _label(Digraph(d1.n + d2.n, edges), "join")


def substitute(d1: Digraph, v_star: int, d2: Digraph) -> Digraph:
    """Replace v_star in d1 by a copy of d2, fanning v_star's edges out to the
    whole copy.

    Labels: d1's other vertices keep their order (those above v_star shift
    down by one); d2 occupies the top v(d2) labels. The result has
    v(d1)+v(d2)-1 vertices and e(d1)+e(d2)+deg(v_star)(v(d2)-1) edges.
    """
    if not 0 <= v_star < d1.n:
        raise ValueError("substituted vertex out of range")
    if d2.n < 1:
        raise ValueError("cannot substitute an empty digraph")

    def relab(u: int) -> int:
        return u if u < v_star else u - 1

    off = d1.n - 1
    edges = []
    for u, v in d1.edges():
        if u != v_star and v != v_star:
            edges.append((relab(u), relab(v)))
    for u, v in d2.edges():
        edges.append((off + u, off + v))
    for w in bits(d1.out(v_star)):
        edges += [(off + i, relab(w)) for i in range(d2.n)]
    for w in bits(d1.inn(v_star)):
        edges += [(relab(w), off + i) for i in range(d2.n)]
    return _label(Digraph(d1.n + d2.n - 1, edges), "substitute")


def add_dominating_vertex(d: Digraph, direction: str) -> Digraph:
    """Append one vertex complete to d: direction "source" orients every new
    edge outward, "sink" inward."""
    if direction not in ("source", "sink"):
        raise ValueError(f"direction must be 'source' or 'sink', got {direction!r}")
    edges = d.edges()
    w = d.n
    if direction == "source":
        edges += [(w, v) for v in range(d.n)]
    else:
        edges += [(v, w) for v in range(d.n)]
    return _label(Digraph(d.n + 1, edges), "add-dominating-vertex")


def symmetric_edge_add(
    d: Digraph, v: int, w: int
) -> Optional[tuple[Digraph, Digraph]]:
    """Both one-edge completions of a non-adjacent pair, when they are
    isomorphic to each other; None otherwise.

    Returns (D + (w,v), D + (v,w)). Under-/over-representation carries over
    to either completion exactly when the pair is symmetric in this sense.
    """
    if d.adjacent(v, w):
        raise ValueError(f"pair {{{v},{w}}} already carries an edge")
    d_prime = Digraph(d.n, d.edges() + [(w, v)])
    d_dprime = Digraph(d.n, d.edges() + [(v, w)])
    if are_isomorphic(d_prime, d_dprime) is None:
        return None
    return d_prime, d_dprime


def impartial_four_tree() -> Digraph:
    """The 4-vertex oriented tree with edges a->b, c->b, d->c whose labeled
    count in any n-vertex tournament depends on n alone."""
    return _label(Digraph(4, [(0, 1), (2, 1), (3, 2)]), "impartial-four-tree")


def catalog(max_vertices: int = 4) -> list[Digraph]:
    """Small standard catalog, unique up to isomorphism, for oracle grids.

    Assembled from the named families with every parameter choice that fits
    in max_vertices (paths, cycles, transitive patterns and their one-edge
    deletions, stars, iterated balanced stars, fans, the subset gadget, the
    orientation union of a single edge, and the impartial 4-vertex tree).
    """
    pool: list[Digraph] = []
    pool += [directed_path(k) for k in range(0, max_vertices)]
    pool += [directed_cycle(r) for r in range(3, max_vertices + 1)]
    pool += [transitive_tournament(k) for k in range(1, max_vertices + 1)]
    for k in range(2, max_vertices + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                pool.append(transitive_minus_edge(k, i, j))
    for s in range(1, max_vertices):
        for d_out in range(0, s + 1):
            pool.append(star(d_out, s - d_out))
    pool += [iterated_balanced_star(k) for k in range(1, max_vertices + 1)]
    pool += [d_family(k) for k in range(0, max_vertices - 1)]
    if max_vertices >= 3:
        pool.append(subset_bipartite(1)[0])
    if max_vertices >= 4:
        pool.append(all_orientations_union(UndirectedGraph(2, [(0, 1)])))
        pool.append(impartial_four_tree())
    out: list[Digraph] = []
    for d in pool:
        if not any(
            c.n == d.n and c.edge_count == d.edge_count and are_isomorphic(c, d)
            for c in out
        ):
            out.append(d)
    return out
