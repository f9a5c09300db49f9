"""Finite relational structures and their basic algebra.

Elements of a structure are dense integer ids 0..n-1.  Relations are stored
as sorted, duplicate-free tuple sets, so equal structures compare equal and
every iteration order is reproducible.  All values are immutable after
construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, StructureParseError

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_POWER_LIMIT = 1_000_000


def env_node_budget() -> Optional[int]:
    """The integer in PCSP_BUDGET_NODES, or None when it is unset or empty."""
    env = os.environ.get("PCSP_BUDGET_NODES")
    return int(env) if env else None


def node_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return override
    env = env_node_budget()
    return env if env is not None else DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class Signature:
    """Ordered sequence of (name, arity) relation symbols."""

    symbols: tuple

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names in signature")
        for name, arity in self.symbols:
            if arity < 0:
                raise ValueError("negative arity for %r" % name)
        object.__setattr__(self, "symbols", tuple((str(n), int(a)) for n, a in self.symbols))

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise KeyError(name)

    @property
    def names(self):
        return tuple(name for name, _ in self.symbols)


@dataclass(frozen=True)
class Structure:
    """A finite relational structure over elements 0..n-1."""

    signature: Signature
    n: int
    relations: tuple = field(default=())  # ((name, ((tuple), ...)), ...) in signature order
    name: str = "structure"

    def __post_init__(self):
        by_name = dict(self.relations)
        norm = []
        for sym, ar in self.signature.symbols:
            tups = tuple(sorted(set(tuple(int(x) for x in t) for t in by_name.get(sym, ()))))
            for t in tups:
                if len(t) != ar:
                    raise ValueError("tuple %r in %s has wrong arity (expected %d)" % (t, sym, ar))
                if any(x < 0 or x >= self.n for x in t):
                    raise ValueError("tuple %r in %s out of domain [0,%d)" % (t, sym, self.n))
            norm.append((sym, tups))
        unknown = set(by_name) - set(self.signature.names)
        if unknown:
            raise ValueError("relations %s not in signature" % sorted(unknown))
        object.__setattr__(self, "relations", tuple(norm))

    def rel(self, name: str) -> tuple:
        for sym, tups in self.relations:
            if sym == name:
                return tups
        raise KeyError(name)

    @cached_property
    def _rel_sets(self):
        return {sym: frozenset(tups) for sym, tups in self.relations}

    def rel_set(self, name: str) -> frozenset:
        """The tuples of a relation as a frozenset, built once per structure."""
        return self._rel_sets[name]


# ---------------------------------------------------------------------------
# Powers and substructures


def encode_power(base: int, coords: Sequence[int]) -> int:
    """Mixed-radix encoding, least-significant coordinate first."""
    val = 0
    for c in reversed(coords):
        val = val * base + c
    return val


def decode_power(base: int, length: int, code: int) -> tuple:
    out = []
    for _ in range(length):
        out.append(code % base)
        code //= base
    return tuple(out)


def power(struct: Structure, m: int, size_limit: int = DEFAULT_POWER_LIMIT) -> Structure:
    if m < 1:
        raise ValueError("power exponent must be >= 1")
    size = struct.n ** m
    if size > size_limit:
        raise BudgetExceededError("power domain size %d exceeds limit %d" % (size, size_limit))
    rels = []
    for sym, ar in struct.signature.symbols:
        base_tuples = struct.rel(sym)
        tups = []
        # one base tuple per coordinate; the power tuple is the column-wise encoding
        for cols in iproduct(base_tuples, repeat=m):
            tups.append(tuple(encode_power(struct.n, [cols[i][pos] for i in range(m)])
                              for pos in range(ar)))
        rels.append((sym, tuple(tups)))
    return Structure(struct.signature, size, tuple(rels), "%s^%d" % (struct.name, m))


def induced_substructure(struct: Structure, subset: Iterable[int]):
    """Substructure induced by a set of elements, re-indexed to 0..|X|-1.

    Returns (substructure, index_map) where index_map[i] is the original id
    of new element i.
    """
    keep = sorted(set(int(x) for x in subset))
    for x in keep:
        if x < 0 or x >= struct.n:
            raise ValueError("element %d not in domain" % x)
    new_id = {x: i for i, x in enumerate(keep)}
    keep_set = set(keep)
    rels = []
    for sym, tups in struct.relations:
        rels.append((sym, tuple(tuple(new_id[x] for x in t)
                                for t in tups if all(x in keep_set for x in t))))
    sub = Structure(struct.signature, len(keep), tuple(rels), "%s|%d" % (struct.name, len(keep)))
    return sub, tuple(keep)


# ---------------------------------------------------------------------------
# Homomorphism search


def _support_table(template: Structure, sym: str, at: tuple, others: tuple) -> dict:
    """Allowed values, as a bitmask, of the element at positions ``at`` of a
    ``sym`` tuple, keyed by the values at positions ``others``: a scalar for
    one other position, else a tuple (what ``itemgetter(*others)`` returns)."""
    key = itemgetter(*others)
    table = {}
    for s in template.rel(sym):
        v = s[at[0]]
        if all(s[p] == v for p in at):
            k = key(s)
            table[k] = table.get(k, 0) | 1 << v
    return table


def support_constraints(instance: Structure, template: Structure):
    """The instance tuples as support-table lookups, as ``(loops, checks)``,
    or None if a nullary instance tuple has no image in the template.

    ``loops[x]`` masks the values x may take in the tuples of x alone (-1 if
    there are none).  ``checks`` holds one ``(y, others, table)`` per other
    tuple, in relation order: y is its largest element, ``others`` the
    elements at its other positions, and ``table`` maps their values (a
    scalar for one position) to the mask of the values y may take.
    """
    loops = [-1] * instance.n
    checks = []
    tables = {}
    for sym, tups in instance.relations:
        target = template.rel_set(sym)
        for t in tups:
            if not t:
                if () not in target:
                    return None
                continue
            *rest, y = sorted(set(t))
            if not rest:
                loops[y] &= sum(1 << s[0] for s in target if s.count(s[0]) == len(s))
                continue
            at = tuple(p for p, e in enumerate(t) if e == y)
            others = tuple(p for p, e in enumerate(t) if e != y)
            table = tables.get((sym, at))
            if table is None:
                table = tables[sym, at] = _support_table(template, sym, at, others)
            checks.append((y, tuple(t[p] for p in others), table))
    return loops, checks


def _search(instance: Structure, template: Structure, fixed, budget, find_all):
    """Backtracking with forward checking; ascending variable/value order.

    Elements are assigned in ascending order, so a tuple with two or more
    distinct elements has one unassigned element, its largest, exactly when
    its second-largest element is assigned.  That is when the tuple prunes
    its largest element's domain, and the values left all satisfy it, so the
    tuple needs no check later.  Tuples whose elements are all x are checked
    when x is assigned.  Domains are bitmasks over the template; each prune
    is one lookup in a support table of the template relation, and a trail
    of (element, old domain) pairs undoes it.
    """
    if instance.signature != template.signature:
        raise ValueError("homomorphism requires a common signature")
    n = instance.n
    tv = template.n
    domains = [(1 << tv) - 1] * n
    for x, a in (fixed or {}).items():
        if x not in range(n):
            raise ValueError("fixed element %r out of instance domain" % (x,))
        if a < 0 or a >= tv:
            raise ValueError("fixed value %d out of template domain" % a)
        domains[x] = 1 << a

    supports = support_constraints(instance, template)
    if supports is None:
        return iter(())
    loops, checks = supports
    # prunes[x]: (y, key of the other positions, support table), in relation
    # order; pruning stops at the first wipe-out, so the order sets its cost
    prunes = [[] for _ in range(n)]
    for y, others, table in checks:
        prunes[max(others)].append((y, itemgetter(*others), table))
    return _walk(n, domains, prunes, loops, budget, find_all)


def _walk(n, domains, prunes, loops, budget, find_all):
    """The depth-first search of ``_search`` on an explicit stack."""
    if n == 0:
        yield ()
        return
    assign = [0] * n
    rest = [0] * n  # values of x not yet tried at this point of the walk
    marks = [0] * n  # trail length when x was reached
    trail = []
    nodes = 0
    x = 0
    rest[0] = domains[0]
    while x >= 0:
        mark = marks[x]
        while len(trail) > mark:
            y, d = trail.pop()
            domains[y] = d
        r = rest[x]
        if not r:
            x -= 1
            continue
        low = r & -r
        rest[x] = r ^ low
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("homomorphism search exceeded %d nodes" % budget)
        if not loops[x] & low:
            continue
        assign[x] = low.bit_length() - 1
        for y, key, table in prunes[x]:
            d = domains[y]
            nd = d & table.get(key(assign), 0)
            if nd != d:
                trail.append((y, d))
                domains[y] = nd
                if not nd:
                    break
        else:
            if x + 1 < n:
                x += 1
                marks[x] = len(trail)
                rest[x] = domains[x]
            else:
                yield tuple(assign)
                if not find_all:
                    return


def hom_search(instance: Structure, template: Structure, fixed=None,
               budget: Optional[int] = None) -> Optional[tuple]:
    """A canonical homomorphism witness, or None.

    Deterministic: ascending element order, ascending value order.  ``fixed``
    optionally pins elements to template values.  The search keeps its own
    stack, so it has no depth limit.  One budget node is one value tried at
    one element; the search raises ``BudgetExceededError`` once it has tried
    more than ``budget`` (default: ``node_budget()``).
    """
    it = _search(instance, template, fixed, node_budget(budget), find_all=False)
    for sol in it:
        return sol
    return None


def enumerate_homomorphisms(instance: Structure, template: Structure,
                            budget: Optional[int] = None) -> Iterator[tuple]:
    """All homomorphisms, in lexicographic order of the assignment vector."""
    return _search(instance, template, None, node_budget(budget), find_all=True)


def is_homomorphism(mapping: Sequence[int], instance: Structure, template: Structure) -> bool:
    if instance.signature != template.signature:
        return False
    if len(mapping) != instance.n:
        return False
    for sym, tups in instance.relations:
        target = template.rel_set(sym)
        for t in tups:
            if tuple(mapping[x] for x in t) not in target:
                return False
    return True


# ---------------------------------------------------------------------------
# Canonical constructions

GRAPH_SIG = Signature((("E", 2),))


def complete_graph(q: int) -> Structure:
    if q < 1:
        raise ValueError("complete graph needs q >= 1")
    edges = tuple((i, j) for i in range(q) for j in range(q) if i != j)
    return Structure(GRAPH_SIG, q, (("E", edges),), "K%d" % q)


def cycle(n: int) -> Structure:
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (j, i)]
    return Structure(GRAPH_SIG, n, (("E", tuple(edges)),), "C%d" % n)


def path(n: int) -> Structure:
    """Path on n vertices (n-1 edges, symmetric)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    return Structure(GRAPH_SIG, n, (("E", tuple(edges)),), "P%d" % n)


def exactly_template(s: int, r: int) -> Structure:
    """Boolean structure whose r-ary relation holds tuples with exactly s ones."""
    if not (0 < s < r):
        raise ValueError("need 0 < s < r")
    sig = Signature((("R", r),))
    tups = tuple(t for t in iproduct((0, 1), repeat=r) if sum(t) == s)
    return Structure(sig, 2, (("R", tups),), "exactly-%d-in-%d" % (s, r))


def nae_template(r: int) -> Structure:
    """Boolean structure: all r-tuples except the two constant ones."""
    if r < 2:
        raise ValueError("need r >= 2")
    sig = Signature((("R", r),))
    tups = tuple(t for t in iproduct((0, 1), repeat=r) if 0 < sum(t) < r)
    return Structure(sig, 2, (("R", tups),), "nae-%d" % r)


# ---------------------------------------------------------------------------
# Text format


def format_structure(struct: Structure) -> str:
    lines = ["structure %s" % struct.name, "domain %d" % struct.n]
    for sym, ar in struct.signature.symbols:
        lines.append("relation %s %d" % (sym, ar))
        for t in struct.rel(sym):
            lines.append(" ".join(str(x) for x in t) or "()")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> Structure:
    name = None
    n = None
    symbols = []
    rels = {}
    current = None
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise StructureParseError("content after 'end'", lineno)
        parts = line.split()
        if parts[0] == "structure":
            if len(parts) != 2:
                raise StructureParseError("expected 'structure <name>'", lineno)
            name = parts[1]
        elif parts[0] == "domain":
            try:
                n = int(parts[1])
            except (IndexError, ValueError):
                raise StructureParseError("expected 'domain <n>'", lineno)
            if n < 0:
                raise StructureParseError("domain size must be >= 0", lineno)
        elif parts[0] == "relation":
            if len(parts) != 3:
                raise StructureParseError("expected 'relation <name> <arity>'", lineno)
            try:
                ar = int(parts[2])
            except ValueError:
                raise StructureParseError("arity must be an integer", lineno)
            current = parts[1]
            if current in rels:
                raise StructureParseError("duplicate relation %r" % current, lineno)
            symbols.append((current, ar))
            rels[current] = []
        elif parts[0] == "end":
            ended = True
        else:
            if current is None:
                raise StructureParseError("tuple outside a relation block", lineno)
            if n is None:
                raise StructureParseError("tuple before 'domain'", lineno)
            ar = dict(symbols)[current]
            if line == "()":
                if ar:
                    raise StructureParseError(
                        "'()' in relation of arity %d" % ar, lineno)
                rels[current].append(())
                continue
            try:
                t = tuple(int(x) for x in parts)
            except ValueError:
                raise StructureParseError("malformed tuple %r" % line, lineno)
            if len(t) != ar:
                raise StructureParseError(
                    "tuple of length %d in relation of arity %d" % (len(t), ar), lineno)
            for x in t:
                if x < 0 or x >= n:
                    raise StructureParseError("element %d out of domain [0,%d)" % (x, n), lineno)
            rels[current].append(t)
    if n is None:
        raise StructureParseError("missing 'domain' line")
    if not ended:
        raise StructureParseError("missing 'end' line")
    return Structure(Signature(tuple(symbols)), n,
                     tuple((s, tuple(ts)) for s, ts in rels.items()),
                     name or "structure")


def load_structure(path_: str) -> Structure:
    with open(path_, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def save_structure(struct: Structure, path_: str) -> None:
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write(format_structure(struct))
