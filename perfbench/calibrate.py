"""A fixed pure-Python reference loop that measures how fast the machine runs
right now, so that query times can be reported at one reference speed.

On a shared host the speed of the interpreter drifts by half or more over
stretches of seconds (other tenants on the same cores and caches).  That drift
hits this loop and the queries alike, so a query's time divided by the
loop's time measured around it stays steady while both wander.  The loop uses
only the standard library, never pcsp, so a change to pcsp cannot move it.

``REF_S`` is the loop's nominal duration: a time ``t`` measured while the
loop takes ``c`` seconds is reported as ``t * REF_S / c``, the time the same
work would take at the speed where the loop takes exactly ``REF_S``.
"""

import gc
import time

REF_S = 0.001


def reference_work():
    """The fixed mix: integer arithmetic, dict updates on tuple keys, and
    indexing into a list of lists, like the interpreter work inside pcsp.

    Of several loops timed next to pcsp queries while the host's speed
    drifted, these three tracked the queries' times most closely; loops
    built on ``Fraction``, frozensets, tuple allocation or recursion
    followed the drift less and added noise of their own.
    """
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7 ^ i
    counts = {}
    for i in range(1000):
        key = ((i * 7919) % 211, i % 11)
        counts[key] = counts.get(key, 0) + i
    rows = [[(i * j) % 17 for j in range(34)] for i in range(34)]
    for r in range(34):
        row = rows[r]
        for c in range(34):
            acc += row[c] * rows[c][r]
    return acc + len(counts)


def measure():
    """Seconds one ``reference_work()`` takes right now.

    The loop runs once untimed first: right after a query its first run is
    10-30% slower, by an amount that depends on the query (the caches and
    the allocator hold the query's data), while a second run is not.  The
    cyclic garbage collector is held off, so that garbage a query left
    behind is not collected inside the loop.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()
