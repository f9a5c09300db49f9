"""Graph coloring with sublinear-palette guarantees.

Wigderson-style coloring with at most 3*ceil(sqrt(n)) colors, list
2-coloring by unit propagation (2-coloring is its all-{0, 1} case), the
recursive case-(a)/(b) coloring scheme with palette governed by the
recurrence Q(m) = 3 + Q(m - ceil(C m^(1-eps))), and a block-partition
baseline.  The 3-coloring subproblems are delegated to an oracle: either
a planted hidden coloring or exact backtracking search.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .core import GRAPH_SIG, Structure, complete_graph, hom_search
from .errors import PcspError, PromiseViolationError
from .seeds import derive_rng

DEFAULT_C = 2
DEFAULT_N0 = 32
EXHAUSTIVE_LIMIT = 14


# ---------------------------------------------------------------------------
# Graph plumbing


def make_graph(n: int, edges) -> Structure:
    """A loopless graph with both orientations of every given edge."""
    sym = set()
    for u, v in edges:
        if u == v:
            raise ValueError("loop at %d" % u)
        sym.add((u, v))
        sym.add((v, u))
    return Structure(GRAPH_SIG, n, (("E", tuple(sorted(sym))),))


def _induced(adj, vertices) -> List[set]:
    """The adjacency sets of the subgraph induced by ``vertices``; new
    vertex i is vertices[i]."""
    pos = {v: i for i, v in enumerate(vertices)}
    return [{pos[w] for w in adj[v] if w in pos} for v in vertices]


def check_graph(g: Structure) -> None:
    sym = g.signature.symbols
    if len(sym) != 1 or sym[0][1] != 2:
        raise ValueError("expected a single binary relation")
    tups = set(g.relations[0][1])
    for u, v in tups:
        if u == v:
            raise ValueError("loop at %d" % u)
        if (v, u) not in tups:
            raise ValueError("missing reverse edge (%d, %d)" % (v, u))


def adjacency(g: Structure) -> List[set]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.relations[0][1]:
        adj[u].add(v)
    return adj


@dataclass(frozen=True)
class Coloring:
    colors: Dict[int, int]
    palette: int

    def __post_init__(self):
        object.__setattr__(self, "colors", dict(self.colors))

    def used(self):
        return set(self.colors.values())


def validate_coloring(g: Structure, col: Coloring) -> bool:
    """Total, proper, and within the declared palette."""
    if set(col.colors) != set(range(g.n)):
        return False
    if any(c < 0 or c >= col.palette for c in col.colors.values()):
        return False
    for u, v in g.relations[0][1]:
        if col.colors[u] == col.colors[v]:
            return False
    return True


# ---------------------------------------------------------------------------
# Oracles


def planted_oracle(coloring: Dict[int, int]):
    """Answers from a hidden proper 3-coloring."""

    def answer(g, subset):
        return {v: coloring[v] for v in subset}

    return answer


K3 = complete_graph(3)


def exact_oracle(budget: int = 500_000):
    """Backtracking 3-coloring of the induced subgraph.

    Refuses (returns None) only when the subgraph has no 3-coloring; a
    search that exceeds ``budget`` nodes raises ``BudgetExceededError``.
    """

    def answer(g, subset):
        subset = sorted(subset)
        sub = _induced(adjacency(g), subset)
        h = hom_search(make_graph(len(subset), [(i, j) for i, nb in enumerate(sub)
                                                for j in nb if i < j]),
                       K3, budget=budget)
        if h is None:
            return None
        return dict(zip(subset, h))

    return answer


# ---------------------------------------------------------------------------
# Two-coloring


def two_color(g: Structure) -> Optional[Coloring]:
    """A proper 2-coloring, or None iff some component is odd.

    The smallest vertex of each component gets color 0, which fixes the
    rest of a bipartite component.
    """
    return list_two_color(g, dict.fromkeys(range(g.n), (0, 1)))


def list_two_color(g: Structure, lists: Dict[int, set]) -> Optional[Coloring]:
    """A proper coloring with c(v) in lists[v], or None.

    Lists have size <= 2.  Unit propagation: every vertex with at most
    one color is forced, then each uncolored vertex in ascending order is
    tried with its first color and, if that propagates to a conflict,
    with its second.  A trial that succeeds leaves the lists of the
    uncolored vertices untouched, so it is never undone, and one trial
    per vertex decides the 2-SAT instance exactly (Even, Itai & Shamir
    1976).
    """
    check_graph(g)
    lists = [sorted(set(lists[v])) for v in range(g.n)]
    if any(len(l) > 2 for l in lists):
        raise ValueError("lists must have size <= 2")
    color = _list_two_color(adjacency(g), lists)
    if color is None:
        return None
    return Coloring(dict(enumerate(color)), max(color, default=-1) + 1)


def _list_two_color(adj, lists) -> Optional[List[int]]:
    """``list_two_color`` on adjacency sets and sorted lists of size <= 2,
    unchecked: the color of each vertex, or None."""
    n = len(adj)
    color = [-1] * n  # -1: uncolored

    def force(v, c):
        """Color v with c and propagate; on a conflict undo this call's
        colors and return False."""
        done = []
        stack = [(v, c)]
        while stack:
            u, cu = stack.pop()
            if color[u] != -1:
                if color[u] != cu:
                    return undo(done)
                continue
            color[u] = cu
            done.append(u)
            for w in adj[u]:
                lw = lists[w]
                if cu not in lw:
                    continue
                if color[w] == cu or len(lw) == 1:
                    return undo(done)
                if color[w] == -1:
                    stack.append((w, lw[1] if lw[0] == cu else lw[0]))
        return True

    def undo(done):
        for u in done:
            color[u] = -1
        return False

    for v in range(n):
        if len(lists[v]) < 2 and not (lists[v] and force(v, lists[v][0])):
            return None  # an empty list, or forced colors that clash
    for v in range(n):
        if color[v] == -1 and not force(v, lists[v][0]) \
                and not force(v, lists[v][1]):
            return None
    return color


# ---------------------------------------------------------------------------
# Wigderson


def wigderson_color(g: Structure, oracle=None) -> Coloring:
    """At most 3*ceil(sqrt(n)) colors when the 3-colorability promise holds.

    While some vertex has degree >= t = ceil(sqrt(n)) in the remaining
    graph, its closed neighborhood is removed and 3-colored (the vertex
    reuses the maximum color of everything colored after it); the
    remainder has maximum degree < t and is colored greedily.
    """
    check_graph(g)
    if oracle is None:
        oracle = exact_oracle()
    n = g.n
    if n == 0:
        return Coloring({}, 0)
    t = math.isqrt(n)
    if t * t < n:
        t += 1
    adj = adjacency(g)
    alive = set(range(n))
    degree = {v: len(adj[v] & alive) for v in alive}
    blobs = []
    while True:
        v = max(alive, key=lambda u: (degree[u], -u), default=None)
        if v is None or degree[v] < t:
            break
        nb = sorted(adj[v] & alive)
        blob = set(nb) | {v}
        twoc = _list_two_color(_induced(adj, nb), [(0, 1)] * len(nb))
        if twoc is not None:
            hv = {w: twoc[i] + 1 for i, w in enumerate(nb)}
            hv[v] = 0
        else:
            full = oracle(g, sorted(blob))
            if full is None:
                raise PromiseViolationError(
                    "neighborhood of %d is not 2-colorable" % v)
            # rotate so v gets the reusable slot 0
            perm = {full[v]: 0}
            nxt = 1
            for c in (0, 1, 2):
                if c not in perm:
                    perm[c] = nxt
                    nxt += 1
            hv = {w: perm[full[w]] for w in blob}
        blobs.append((v, hv))
        alive -= blob
        for w in alive:
            degree[w] = len(adj[w] & alive)

    colors = {}
    for w in sorted(alive):
        used = {colors[x] for x in adj[w] if x in colors}
        c = 0
        while c in used:
            c += 1
        colors[w] = c
    base_max = t - 1  # greedy never exceeds t colors: max degree < t

    # assign blob palettes inner-to-outer; the pivot vertex reuses the
    # maximum color of the strictly inner part
    top = base_max
    for v, hv in reversed(blobs):
        a = top
        for w, c in hv.items():
            colors[w] = a if c == 0 else a + c
        top = a + 2
    palette = max(colors.values(), default=0) + 1
    return Coloring(colors, palette)


# ---------------------------------------------------------------------------
# Generalized recursion


@dataclass
class LevelTrace:
    level: int
    case: str
    m: int
    x_size: int
    colors: Tuple[int, ...] = ()


class ColoringAborted(PcspError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _blob(adj, pool, s):
    nb = set()
    for v in s:
        nb |= adj[v] & pool
    return set(s) | nb


def _greedy_s(adj, pool, size, threshold):
    """Top-degree greedy pick of S maximizing the blob; None if under threshold."""
    pool = set(pool)
    order = sorted(pool, key=lambda v: (-len(adj[v] & pool), v))
    s = order[:size]
    blob = _blob(adj, pool, s)
    if len(blob) > threshold:
        return s, blob
    return None


def _exhaustive_s(adj, pool, size, threshold):
    for s in combinations(sorted(pool), size):
        blob = _blob(adj, pool, s)
        if len(blob) > threshold:
            return list(s), blob
    return None


def generalized_color(g: Structure, eps: float, oracle,
                      C: float = DEFAULT_C, n0: int = DEFAULT_N0,
                      exhaustive_limit: int = EXHAUSTIVE_LIMIT):
    """Recursive coloring with a fresh 3-color block per level.

    At each level with current vertex set Y (|Y| = m): if m is at most
    C*m^(1-eps) the whole of Y is 3-colored directly.  Otherwise case (a)
    looks for S of size k-3 whose closed neighborhood exceeds C*m^(1-eps);
    S is 3-colored and extended to N(S) through list 2-coloring.  When no
    such S exists (case (b)), a maximal disjoint family of blobs is built
    greedily and all the S parts are colored with one shared block, which
    is proper because distinct blobs admit no crossing edges to each
    other's S parts.

    Returns (Coloring, trace).  Raises ColoringAborted when the removed
    set falls short of min(m, C*m^(1-eps)) and exhaustive search is out
    of reach.
    """
    check_graph(g)
    if not (0 < eps < 0.5):
        raise ValueError("eps must be in (0, 1/2)")
    n = g.n
    k = max(3 + math.ceil(C * C * n ** (1 - 2 * eps)), n0)
    adj = adjacency(g)
    colors = {}
    trace = []
    pool = set(range(n))
    level = 0
    while pool:
        m = len(pool)
        target = C * m ** (1 - eps)
        block = 3 * level
        if m <= target or m <= k:
            h = oracle(g, sorted(pool))
            if h is None:
                raise PromiseViolationError("oracle refused the base case")
            for v in pool:
                colors[v] = block + h[v]
            trace.append(LevelTrace(level, "direct", m, m,
                                    (block, block + 1, block + 2)))
            break
        size = min(k - 3, m)
        found = _greedy_s(adj, pool, size, target)
        if found is None and m <= exhaustive_limit:
            found = _exhaustive_s(adj, pool, size, target)
        if found is not None:
            s, blob = found
            h = oracle(g, sorted(s))
            if h is None:
                raise PromiseViolationError("oracle refused an S part")
            nsub = sorted(blob - set(s))
            x = _color_case_a(g, adj, s, h, nsub, oracle)
            if x is None:
                raise PromiseViolationError(
                    "no list coloring extends the oracle answer")
            for v, c in x.items():
                colors[v] = block + c
            removed = blob
            case = "a"
        else:
            removed, x = _case_b(adj, pool, size, oracle, g)
            for v, c in x.items():
                colors[v] = block + c
            case = "b"
        x_size = len(removed)
        trace.append(LevelTrace(level, case, m, x_size,
                                (block, block + 1, block + 2)))
        if case == "b" and x_size < min(m, target) and m > exhaustive_limit:
            raise ColoringAborted(
                "removed %d of required %d at level %d"
                % (x_size, math.ceil(min(m, target)), level), trace)
        pool -= removed
        level += 1
    palette = max(colors.values(), default=-1) + 1
    return Coloring(colors, palette), trace


def _color_case_a(g, adj, s, h, nsub, oracle):
    """Extend the 3-coloring h of S to N(S) by list coloring, with an
    oracle fallback on the whole blob when h does not extend."""
    sset = set(s)
    lists = [sorted({0, 1, 2} - {h[u] for u in adj[v] & sset}) for v in nsub]
    lc = _list_two_color(_induced(adj, nsub), lists)
    if lc is not None:
        out = {v: h[v] for v in s}
        for i, v in enumerate(nsub):
            out[v] = lc[i]
        return out
    full = oracle(g, sorted(sset | set(nsub)))
    if full is None:
        return None
    return dict(full)


def _case_b(adj, pool, size, oracle, g):
    """Greedy maximal disjoint blob family; colors the union of S parts."""
    avail = set(pool)
    out = {}
    removed = set()
    while avail:
        order = sorted(avail, key=lambda v: (-len(adj[v] & avail), v))
        s = order[:min(size, len(avail))]
        blob = _blob(adj, avail, s)
        h = oracle(g, sorted(s))
        if h is None:
            raise PromiseViolationError("oracle refused a case-(b) S part")
        for v in s:
            out[v] = h[v]
        avail -= blob
        removed |= set(s)
    return removed, out


# ---------------------------------------------------------------------------
# Baseline and recurrence


def partition_baseline(g: Structure, eps: float, oracle) -> Coloring:
    """Blocks of ceil(n^(1-eps)) vertices, each 3-colored with its own palette."""
    check_graph(g)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    n = g.n
    if n == 0:
        return Coloring({}, 0)
    bs = math.ceil(n ** (1 - eps))
    colors = {}
    block = 0
    for start in range(0, n, bs):
        chunk = list(range(start, min(start + bs, n)))
        h = oracle(g, chunk)
        if h is None:
            raise PromiseViolationError("oracle refused a block")
        for v in chunk:
            colors[v] = 3 * block + h[v]
        block += 1
    return Coloring(colors, 3 * block)


def color_recurrence_Q(n: int, eps: float, C: float = DEFAULT_C) -> int:
    """Total palette of the level recurrence, iterated from n down."""
    if C <= 0 or not (0 < eps < 0.5):
        raise ValueError("need C > 0 and eps in (0, 1/2)")
    m = n
    total = 0
    while m > C * m ** (1 - eps):
        total += 3
        m -= math.ceil(C * m ** (1 - eps))
    return total + 3


# ---------------------------------------------------------------------------
# Planted instances


def random_planted_graph(n: int, edge_prob: float, seed: int):
    """A random 3-colorable graph and its hidden coloring.

    Vertices get classes uniformly; each cross-class pair becomes an edge
    with the given probability.
    """
    rng = derive_rng(seed, "planted", n)
    classes = {v: rng.randrange(3) for v in range(n)}
    edges = []
    for u, v in combinations(range(n), 2):
        if classes[u] != classes[v] and rng.random() < edge_prob:
            edges.append((u, v))
    return make_graph(n, edges), classes
