"""Command-line entry point.

Subcommands: analyze, consistency, sa, polymorph, sample, hard, color,
bench.  Exit codes: 0 success, 1 negative verdict (no hom / infeasible /
no witness), 2 usage or input error, 3 search budget exceeded, 4 internal
error (a self-check of pcsp failed, or any other unexpected exception).
All CSV reports start with the versioned header line `# pcsp-lab v1`.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import coloring as col
from . import consistency as cons
from . import polymorphisms as poly
from . import random_instances as ri
from . import sherali_adams as sa
from . import template_analyzer as ta
from .core import Structure, env_node_budget, hom_search, load_structure, save_structure
from .errors import (
    BudgetExceededError,
    InternalError,
    PcspError,
    PromiseViolationError,
    StructureParseError,
)

CSV_HEADER = "# pcsp-lab v1"


def _write_csv(path, fieldnames, rows):
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    if path == "-":
        sys.stdout.write(buf.getvalue())
    else:
        with open(path, "w") as fh:
            fh.write(buf.getvalue())


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(str(e))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze(args):
    left = load_structure(args.left)
    right = load_structure(args.right)
    report = ta.classify(left, right)
    if args.json:
        print(json.dumps(ta.report_dict(report), sort_keys=True))
    else:
        print("verdict: %s" % report.verdict)
        if report.degenerate:
            print("note: fewer than two product coordinates")
    return 0


def cmd_consistency(args):
    instance = load_structure(args.instance)
    template = load_structure(args.template)
    strategy = cons.compute_strategy(instance, template, args.k,
                                     budget=env_node_budget())
    ok = strategy is not None
    print("leq_%d: %s (%d maps)" % (args.k, str(ok).lower(),
                                    len(strategy) if ok else 0))
    if args.emit_strategy and ok:
        with open(args.emit_strategy, "w") as fh:
            fh.write(cons.format_strategy(strategy))
    return 0 if ok else 1


def cmd_sa(args):
    instance = load_structure(args.instance)
    template = load_structure(args.template)
    verdict = sa.solve_sa(instance, template, args.level)
    print("sa_%d: %s" % (args.level, "feasible" if verdict.feasible
                         else "infeasible"))
    if verdict.feasible and args.certificate:
        with open(args.certificate, "w") as fh:
            fh.write(sa.format_certificate(verdict.point))
    return 0 if verdict.feasible else 1


def cmd_polymorph(args):
    left = load_structure(args.left)
    right = load_structure(args.right)
    if args.wnu:
        w = poly.has_wnu(left, right, args.arity)
        if w is None:
            print("no WNU of arity %d" % args.arity)
            return 1
        out = poly.format_operation(w)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0
    found = list(poly.enumerate_polymorphisms(left, right, args.arity))
    print("%d polymorphisms of arity %d" % (len(found), args.arity))
    if args.out:
        with open(args.out, "w") as fh:
            for f in found:
                fh.write(poly.format_operation(f))
    return 0 if found else 1


def cmd_sample(args):
    s = ri.sample_hypergraph(args.n, args.r, args.d, args.seed)
    save_structure(s, args.out)
    print("%d tuples" % len(s.rel("R")))
    return 0


def cmd_hard(args):
    left = load_structure(args.left)
    right = load_structure(args.right)
    r = left.signature.symbols[0][1]
    params = ri.derive_parameters(r, args.p, right.n, args.n, args.eps,
                                  mode=args.mode, d=args.d)
    failed = [name for name, ok in params.conditions.items() if not ok]
    if failed:
        print("warning: conditions not met: %s" % ", ".join(failed),
              file=sys.stderr)
    inst, diag = ri.generate_hard_instance(left, right, args.n, params,
                                           args.seed, args.attempts)
    if args.report:
        _write_csv(args.report,
                   ["attempt", "hom_found", "sparse", "exact", "reason"],
                   diag["attempts"])
    if inst is not None and args.out:
        save_structure(inst, args.out)
    print("found" if inst is not None else
          "no instance in %d attempts" % diag["tried"])
    return 0 if inst is not None else 1


def _load_planted(path):
    planted = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            v, c = ln.split()
            planted[int(v)] = int(c)
    return planted


def cmd_color(args):
    g = load_structure(args.graph)
    col.check_graph(g)
    if args.planted:
        planted = _load_planted(args.planted)
        if not col.validate_coloring(g, col.Coloring(planted, 3)):
            raise ValueError("planted map is not a proper 3-coloring of the graph")
        oracle = col.planted_oracle(planted)
    else:
        oracle = col.exact_oracle()
    trace = None
    if args.mode == "wigderson":
        out = col.wigderson_color(g, oracle)
    elif args.mode == "general":
        out, trace = col.generalized_color(g, args.epsilon, oracle,
                                           C=args.C, n0=args.n0)
    else:
        out = col.partition_baseline(g, args.epsilon, oracle)
    if not col.validate_coloring(g, out):
        raise InternalError("%s coloring is not proper" % args.mode)
    lines = ["%d %d" % (v, out.colors[v]) for v in sorted(out.colors)]
    body = "\n".join(lines) + ("\n" if lines else "")
    if args.out == "-":
        sys.stdout.write(body)
    else:
        with open(args.out, "w") as fh:
            fh.write(body)
    print("palette: %d" % out.palette)
    if trace is not None and args.trace:
        _write_csv(args.trace, ["level", "case", "m", "x_size"],
                   [{"level": t.level, "case": t.case, "m": t.m,
                     "x_size": t.x_size} for t in trace])
    return 0


def cmd_bench(args):
    left = load_structure(args.left)
    right = load_structure(args.right)
    sym, r = left.signature.symbols[0]
    ks = [int(x) for x in args.k.split(",")] if args.k else []
    levels = [int(x) for x in args.sa.split(",")] if args.sa else []
    fields = ["n", "seed"] + ["leq_k%d" % k for k in ks] + \
        ["leq_sa%d" % l for l in levels] + ["hom"]
    rows = []
    for n in range(args.nmin, args.nmax + 1, args.step):
        for s in range(args.seeds):
            raw = ri.sample_hypergraph(n, r, args.d, s)
            inst = Structure(left.signature, n,
                             ((sym, raw.rel("R")),))
            row = {"n": n, "seed": s}
            for k in ks:
                row["leq_k%d" % k] = cons.leq_k(inst, left, k)
            for l in levels:
                row["leq_sa%d" % l] = sa.leq_sa(inst, left, l)
            row["hom"] = hom_search(inst, right) is not None
            rows.append(row)
    _write_csv(args.out, fields, rows)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    p = argparse.ArgumentParser(prog="pcsp")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="template classification")
    a.add_argument("--left", required=True)
    a.add_argument("--right", required=True)
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("consistency", help="k-consistency strategy")
    c.add_argument("--instance", required=True)
    c.add_argument("--template", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--emit-strategy")
    c.set_defaults(func=cmd_consistency)

    s = sub.add_parser("sa", help="Sherali-Adams feasibility")
    s.add_argument("--instance", required=True)
    s.add_argument("--template", required=True)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--certificate")
    s.set_defaults(func=cmd_sa)

    m = sub.add_parser("polymorph", help="polymorphism search")
    m.add_argument("--left", required=True)
    m.add_argument("--right", required=True)
    m.add_argument("--arity", type=int, required=True)
    m.add_argument("--wnu", action="store_true")
    m.add_argument("--out")
    m.set_defaults(func=cmd_polymorph)

    sp = sub.add_parser("sample", help="random hypergraph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--d", type=_rational, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sample)

    h = sub.add_parser("hard", help="rejection-sample a hard instance")
    h.add_argument("--left", required=True)
    h.add_argument("--right", required=True)
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--attempts", type=int, default=100)
    h.add_argument("--report")
    h.add_argument("--out")
    h.add_argument("--eps", type=_rational, default=Fraction(1, 5))
    h.add_argument("--p", type=int, default=1)
    h.add_argument("--d", type=_rational, default=None,
                   help="override the derived edge density")
    h.add_argument("--mode", choices=[ri.GENERAL, ri.DIGRAPH],
                   default=ri.GENERAL)
    h.set_defaults(func=cmd_hard)

    g = sub.add_parser("color", help="approximate coloring")
    g.add_argument("--graph", required=True)
    g.add_argument("--mode", choices=["wigderson", "general", "baseline"],
                   required=True)
    g.add_argument("--epsilon", type=float, default=0.3)
    g.add_argument("--C", type=float, default=col.DEFAULT_C)
    g.add_argument("--n0", type=int, default=col.DEFAULT_N0)
    g.add_argument("--planted")
    g.add_argument("--out", required=True)
    g.add_argument("--trace")
    g.set_defaults(func=cmd_color)

    b = sub.add_parser("bench", help="parameter sweep report")
    b.add_argument("--left", required=True)
    b.add_argument("--right", required=True)
    b.add_argument("--nmin", type=int, required=True)
    b.add_argument("--nmax", type=int, required=True)
    b.add_argument("--step", type=int, default=1)
    b.add_argument("--seeds", type=int, default=1)
    b.add_argument("--k", default="")
    b.add_argument("--sa", default="")
    b.add_argument("--d", type=_rational, default=Fraction(2))
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except StructureParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return 3
    except InternalError as e:
        print(e, file=sys.stderr)
        return 4
    except (PromiseViolationError, col.ColoringAborted) as e:
        print("failed: %s" % e, file=sys.stderr)
        return 1
    except (ValueError, PcspError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        # any other exception is a defect of pcsp, never a verdict
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
