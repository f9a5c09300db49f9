"""Operation tables, minors, polymorphisms, WNUs, and free structures.

An n-ary operation A^n -> B is stored as a flat table indexed by the
mixed-radix encoding of its argument tuple, least-significant argument
first (the same encoding used for power structures).
"""

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterator, Optional

from .core import (
    Structure,
    decode_power,
    encode_power,
    enumerate_homomorphisms,
    hom_search,
    power,
)
from .errors import BudgetExceededError, InternalError

DEFAULT_TABLE_BUDGET = 1_000_000


@dataclass(frozen=True)
class OperationTable:
    """A finite function from in_size^arity argument tuples to out_size values."""

    arity: int
    in_size: int
    out_size: int
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        if len(self.table) != self.in_size ** self.arity:
            raise ValueError("table length %d does not match %d^%d" % (
                len(self.table), self.in_size, self.arity))
        if any(v < 0 or v >= self.out_size for v in self.table):
            raise ValueError("table entry out of output carrier")

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError("expected %d arguments" % self.arity)
        return self.table[encode_power(self.in_size, args)]


def is_polymorphism(f: OperationTable, left: Structure, right: Structure) -> bool:
    """True iff applying f row-wise to any columns from R^S lands in R^T."""
    if f.in_size != left.n or f.out_size != right.n:
        return False
    if left.signature != right.signature:
        return False
    for sym, tups in left.relations:
        target = right.rel_set(sym)
        ar = left.signature.arity(sym)
        for cols in iproduct(tups, repeat=f.arity):
            image = tuple(f(*(cols[j][i] for j in range(f.arity)))
                          for i in range(ar))
            if image not in target:
                return False
    return True


def enumerate_polymorphisms(left: Structure, right: Structure, m: int,
                            budget: int = DEFAULT_TABLE_BUDGET) -> Iterator[OperationTable]:
    """All m-ary polymorphisms, in lexicographic table order."""
    if left.n ** m > budget:
        raise BudgetExceededError("power domain %d^%d exceeds budget" % (left.n, m))
    pw = power(left, m, size_limit=budget)
    for h in enumerate_homomorphisms(pw, right):
        yield OperationTable(m, left.n, right.n, h)


def minor(g: OperationTable, pi) -> OperationTable:
    """The minor f(x_1..x_n) = g(x_{pi(1)},...,x_{pi(m)}).

    ``pi`` is a sequence of length arity(g) with values in [0, n); n is
    inferred as max(pi)+1 unless given explicitly via a (pi, n) pair.
    """
    if isinstance(pi, tuple) and len(pi) == 2 and isinstance(pi[1], int) \
            and not isinstance(pi[0], int):
        pi, n = pi
    else:
        pi = tuple(pi)
        n = max(pi) + 1 if pi else 1
    if len(pi) != g.arity:
        raise ValueError("pi must have one entry per argument of g")
    table = []
    for code in range(g.in_size ** n):
        x = decode_power(g.in_size, n, code)
        table.append(g(*(x[pi[j]] for j in range(g.arity))))
    return OperationTable(n, g.in_size, g.out_size, tuple(table))


def is_wnu(f: OperationTable) -> bool:
    """True iff all one-off evaluation patterns of f agree, for every x, y."""
    if f.arity < 2:
        raise ValueError("WNU identities need arity >= 2")
    for x in range(f.in_size):
        for y in range(f.in_size):
            if x == y:
                continue
            args = [x] * f.arity
            args[0] = y
            first = f(*args)
            for i in range(1, f.arity):
                args = [x] * f.arity
                args[i] = y
                if f(*args) != first:
                    return False
    return True


def _wnu_classes(n: int, m: int):
    """Cell groups of an m-ary table on [n] tied by the WNU identities."""
    parent = list(range(n ** m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def tie(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            codes = []
            for i in range(m):
                args = [x] * m
                args[i] = y
                codes.append(encode_power(n, args))
            for c in codes[1:]:
                tie(codes[0], c)
    groups = {}
    for cell in range(n ** m):
        groups.setdefault(find(cell), []).append(cell)
    return list(groups.values())


def has_wnu(left: Structure, right: Structure, m: int,
            budget: int = DEFAULT_TABLE_BUDGET) -> Optional[OperationTable]:
    """A WNU m-ary polymorphism witness, or None.

    Cells tied by the WNU identities are merged into one decision variable:
    the search runs on the quotient of the m-th power of the left template.
    """
    if m < 2:
        raise ValueError("WNU arity must be >= 2")
    if left.n ** m > budget:
        raise BudgetExceededError("power domain %d^%d exceeds budget" % (left.n, m))
    pw = power(left, m, size_limit=budget)
    classes = _wnu_classes(left.n, m)
    class_of = {}
    for idx, cells in enumerate(classes):
        for cell in cells:
            class_of[cell] = idx
    rels = []
    for sym, tups in pw.relations:
        rels.append((sym, tuple(tuple(class_of[x] for x in t) for t in tups)))
    quotient = Structure(pw.signature, len(classes), tuple(rels))
    h = hom_search(quotient, right)
    if h is None:
        return None
    table = [0] * (left.n ** m)
    for cell in range(left.n ** m):
        table[cell] = h[class_of[cell]]
    f = OperationTable(m, left.n, right.n, tuple(table))
    if not is_wnu(f):
        raise InternalError("WNU search returned a table that is not a WNU")
    return f


def majority_first_tiebreak(m: int, carrier: int = 2) -> OperationTable:
    """Returns the strict-majority value if one exists, else the first argument."""
    if m < 3:
        raise ValueError("arity must be >= 3")
    table = []
    for code in range(carrier ** m):
        args = decode_power(carrier, m, code)
        winner = args[0]
        for v in set(args):
            if args.count(v) * 2 > m:
                winner = v
                break
        table.append(winner)
    return OperationTable(m, carrier, carrier, tuple(table))


def alternating_threshold(m: int) -> OperationTable:
    """Boolean: 1 iff the alternating-sign sum of the arguments is positive."""
    if m % 2 == 0 or m < 3:
        raise ValueError("arity must be odd and >= 3")
    table = []
    for code in range(2 ** m):
        args = decode_power(2, m, code)
        s = sum(v if i % 2 == 0 else -v for i, v in enumerate(args))
        table.append(1 if s > 0 else 0)
    return OperationTable(m, 2, 2, tuple(table))


class MinionFragment:
    """A finite set of operation tables, grouped by arity."""

    def __init__(self, tables):
        self._by_arity = {}
        for t in tables:
            self._by_arity.setdefault(t.arity, set()).add(t)

    def arity_part(self, n: int):
        return sorted(self._by_arity.get(n, ()), key=lambda t: t.table)

    def __contains__(self, t):
        return t in self._by_arity.get(t.arity, ())

    def __iter__(self):
        for n in sorted(self._by_arity):
            yield from self.arity_part(n)

    @classmethod
    def generated_by(cls, g: OperationTable, arities):
        """g plus all its minors at the requested arities."""
        tables = {g}
        for n in arities:
            for pi in iproduct(range(n), repeat=g.arity):
                tables.add(minor(g, (pi, n)))
        return cls(tables)


def free_structure(base: Structure, fragment: MinionFragment) -> Structure:
    """The structure on the |base|-ary part of the fragment.

    For each relation with tuples t_1..t_m (lexicographic order) and each
    m-ary g in the fragment, the tuple of minors (g_pi_1, ..., g_pi_r) with
    pi_i(j) = t_j(i) is included.  Every such minor must already be in the
    fragment's |base|-ary part.
    """
    n = base.n
    domain = fragment.arity_part(n)
    index = {t: i for i, t in enumerate(domain)}
    rels = []
    for sym, tups in base.relations:
        r = base.signature.arity(sym)
        ordered = sorted(tups)
        m = len(ordered)
        out = []
        for g in fragment.arity_part(m):
            image = []
            for i in range(r):
                pi = tuple(ordered[j][i] for j in range(m))
                f_i = minor(g, (pi, n))
                if f_i not in index:
                    raise ValueError(
                        "fragment not closed: missing %d-ary minor of a "
                        "%d-ary member for relation %s" % (n, m, sym))
                image.append(index[f_i])
            out.append(tuple(image))
        rels.append((sym, tuple(out)))
    return Structure(base.signature, len(domain), tuple(rels),
                     "free(%s)" % base.name)


def has_reflexive_tuple(struct: Structure) -> Optional[int]:
    """An element whose constant tuple is in every relation, or None."""
    for a in range(struct.n):
        if all((a,) * ar in struct.rel_set(sym) for sym, ar in struct.signature.symbols):
            return a
    return None


def format_operation(f: OperationTable) -> str:
    return "op %d %d %d\n%s\n" % (
        f.arity, f.in_size, f.out_size, " ".join(str(v) for v in f.table))


def parse_operation(text: str) -> OperationTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("op "):
        raise ValueError("expected 'op <arity> <inSize> <outSize>' and a table line")
    _, ar, ins, outs = lines[0].split()
    table = tuple(int(v) for v in lines[1].split())
    return OperationTable(int(ar), int(ins), int(outs), table)
