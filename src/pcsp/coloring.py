"""Graph coloring with sublinear-palette guarantees.

Wigderson-style coloring with at most 3*ceil(sqrt(n)) colors, list
2-coloring by implication closure, the recursive case-(a)/(b) coloring
scheme with palette governed by the recurrence Q(m) = 3 + Q(m - ceil(C
m^(1-eps))), and a block-partition baseline.  The 3-coloring subproblems
are delegated to an oracle: either a planted hidden coloring or exact
backtracking search.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .core import (
    GRAPH_SIG,
    Structure,
    complete_graph,
    hom_search,
    induced_substructure,
)
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
        sub, index_map = induced_substructure(g, subset)
        sub = Structure(GRAPH_SIG, sub.n, (("E", sub.relations[0][1]),))
        h = hom_search(sub, K3, budget=budget)
        if h is None:
            return None
        return {index_map[i]: h[i] for i in range(sub.n)}

    return answer


# ---------------------------------------------------------------------------
# Two-coloring


def two_color(g: Structure) -> Optional[Coloring]:
    """BFS bipartition per component; None iff some component is odd."""
    check_graph(g)
    adj = adjacency(g)
    colors = {}
    for start in range(g.n):
        if start in colors:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in colors:
                    colors[w] = 1 - colors[u]
                    queue.append(w)
                elif colors[w] == colors[u]:
                    return None
    return Coloring(colors, max(colors.values(), default=-1) + 1)


def list_two_color(g: Structure, lists: Dict[int, set]) -> Optional[Coloring]:
    """A proper coloring with c(v) in lists[v], or None.

    Lists have size <= 2; singletons are propagated to a fixpoint, the
    residual instance is a 2-SAT implication closure solved by SCC.
    """
    check_graph(g)
    lists = {v: sorted(set(lists[v])) for v in range(g.n)}
    if any(len(l) > 2 for l in lists.values()):
        raise ValueError("lists must have size <= 2")
    adj = adjacency(g)

    colors = {}
    pending = [v for v, l in lists.items() if len(l) <= 1]
    while pending:
        v = pending.pop()
        if v in colors:
            continue
        if not lists[v]:
            return None
        colors[v] = lists[v][0]
        for w in adj[v]:
            if w in colors:
                if colors[w] == colors[v]:
                    return None
                continue
            if colors[v] in lists[w]:
                lists[w] = [c for c in lists[w] if c != colors[v]]
                if len(lists[w]) <= 1:
                    pending.append(w)

    free = [v for v in range(g.n) if v not in colors]
    # 2-SAT: variable per free vertex, True = second list entry
    nvar = len(free)
    index = {v: i for i, v in enumerate(free)}

    def lit(i, val):
        return 2 * i + (1 if val else 0)

    impl = [[] for _ in range(2 * nvar)]

    def add_clause(a, b):
        # a OR b, literals as (var, bool)
        (ia, va), (ib, vb) = a, b
        impl[lit(ia, not va)].append(lit(ib, vb))
        impl[lit(ib, not vb)].append(lit(ia, va))

    for v in free:
        for w in adj[v]:
            if w not in index or w < v:
                continue
            for ci, cu in enumerate(lists[v]):
                for cj, cw in enumerate(lists[w]):
                    if cu == cw:
                        # not (v=cu and w=cw)
                        add_clause((index[v], ci == 0), (index[w], cj == 0))

    assignment = _two_sat(2 * nvar, impl)
    if assignment is None:
        return None
    for v in free:
        colors[v] = lists[v][1 if assignment[index[v]] else 0]
    palette = max(colors.values(), default=-1) + 1
    return Coloring(colors, palette)


def _two_sat(nlits: int, impl) -> Optional[List[bool]]:
    """Tarjan SCC over the implication graph; None when unsatisfiable."""
    comp = [-1] * nlits
    low = [0] * nlits
    num = [-1] * nlits
    counter = [0]
    ncomp = [0]
    stack = []
    onstack = [False] * nlits

    for root in range(nlits):
        if num[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                num[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                onstack[node] = True
            if ei < len(impl[node]):
                work[-1] = (node, ei + 1)
                nxt = impl[node][ei]
                if num[nxt] == -1:
                    work.append((nxt, 0))
                elif onstack[nxt]:
                    low[node] = min(low[node], num[nxt])
            else:
                if low[node] == num[node]:
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp[w] = ncomp[0]
                        if w == node:
                            break
                    ncomp[0] += 1
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    out = []
    for i in range(0, nlits, 2):
        if comp[i] == comp[i + 1]:
            return None
        # reverse topological order: higher component index is earlier,
        # pick the literal whose component comes later in topo order
        out.append(comp[i + 1] < comp[i])
    return out


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
        nb = adj[v] & alive
        blob = nb | {v}
        twoc = two_color(_restrict_to(g, nb))
        if twoc is not None:
            hv = {w: twoc.colors[w] + 1 for w in nb}
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


def _restrict_to(g: Structure, subset) -> Structure:
    subset = set(subset)
    edges = tuple((u, v) for u, v in g.relations[0][1]
                  if u in subset and v in subset)
    return Structure(GRAPH_SIG, g.n, (("E", edges),))


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
    pos = {v: i for i, v in enumerate(nsub)}
    edges = [(pos[u], pos[v]) for u in nsub for v in adj[u]
             if v in pos and pos[u] < pos[v]]
    sub = make_graph(len(nsub), edges)
    lists = {}
    for v in nsub:
        banned = {h[u] for u in adj[v] & sset}
        lists[pos[v]] = set(range(3)) - banned
    lc = list_two_color(sub, lists)
    if lc is not None:
        out = {v: h[v] for v in s}
        for v in nsub:
            out[v] = lc.colors[pos[v]]
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
