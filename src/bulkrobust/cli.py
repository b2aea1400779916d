"""Command line entry point.

Exit codes: 0 success, 1 verification mismatch, 2 infeasible instance,
3 invariant breach or violated guarantee, 4 usage error (including
malformed files and exceeded budgets).  Every command is reproducible
from its arguments and input files; the only nondeterministic report
column is bench's wall_ms.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import generators
from .driver import guarantee_factor, solution_dict, solve
from .errors import BudgetError, InfeasibleError, InstanceError, InvariantError
from .instance import is_int_rows, parse_instance, serialize_instance
from .lp import LinearProgram, lp_to_text, simplex_min
from .oracle import OracleBudget, brute_force_opt, is_feasible
from .setcover import exact_min_cover

GAP_LIMIT = 8.0 + 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(4, f"{self.prog}: error: {message}\n")


def _read_instance(path):
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- solve / verify / oracle ------------------------------------------------

def _cmd_solve(args):
    inst = _read_instance(args.instance)
    dumps = []

    def on_lp(level, ctx, links, cover):
        costs = [link.cost for link in links]
        table = ctx.covering(links)
        rows = []
        for f_set in ctx.omega:
            a = np.zeros(len(links))
            a[list(table[f_set])] = 1.0
            rows.append((a, 1.0))
        dumps.append(f"# level {level}\n" + lp_to_text(LinearProgram(costs, rows)))

    hook = on_lp if args.lp_dump else None
    x, trace = solve(inst, on_lp=hook)
    payload = solution_dict(inst, x, trace)
    _write(args.output, json.dumps(payload, indent=1) + "\n")
    if args.trace:
        _write(args.trace, json.dumps(payload["trace"], indent=1) + "\n")
    if args.lp_dump:
        _write(args.lp_dump, "".join(dumps))
    print(f"solved: cost {payload['cost']}, {len(payload['chosen_edges'])} edges")
    return 0


def _cmd_verify(args):
    inst = _read_instance(args.instance)
    with open(args.solution, "r", encoding="utf-8") as fh:
        try:
            sol = json.load(fh)
        except ValueError as exc:   # bad JSON, or an integer over Python's digit limit
            raise InstanceError(f"malformed solution file: {exc}") from None
    if type(sol) is not dict or not is_int_rows([sol.get("chosen_edges")]):
        raise InstanceError("solution file must map chosen_edges to a list of edge ids")
    if type(sol.get("cost")) is not int:
        raise InstanceError("solution file must give cost as a JSON integer")
    chosen = frozenset(sol["chosen_edges"])
    dangling = chosen - inst.edge_ids
    if dangling:
        print(f"solution references unknown edges {sorted(dangling)}")
        return 1
    cost = inst.weight_of(chosen)
    if cost != sol["cost"]:
        print(f"cost mismatch: file says {sol['cost']}, edges sum to {cost}")
        return 1
    if not is_feasible(inst, chosen):
        print("solution is not feasible")
        return 1
    print(f"OK: feasible, cost {cost}")
    return 0


def _cmd_oracle(args):
    inst = _read_instance(args.instance)
    budget = OracleBudget(max_edges=args.max_edges, max_subsets=args.max_subsets)
    opt, witness = brute_force_opt(inst, budget)
    print(json.dumps({"opt": opt, "witness": sorted(witness)}))
    return 0


# -- generate ----------------------------------------------------------------

def _cmd_generate(args):
    try:
        if args.family == "grid":
            inst = generators.gen_grid(args.rows, args.cols, args.scenarios, args.k,
                                       args.weight_max, args.seed, problem=args.problem)
        elif args.family == "sp":
            inst = generators.gen_series_parallel(args.depth, args.scenarios, args.k,
                                                  args.weight_max, args.seed,
                                                  problem=args.problem)
        else:
            h, inst = generators.gen_hypergraph_vc(args.k, args.part_size, args.edges,
                                                   args.seed)
    except ValueError as exc:   # a generator's parameter check
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.family == "hvc" and args.hypergraph_out:
        _write(args.hypergraph_out, generators.serialize_hypergraph(h))
    _write(args.output, serialize_instance(inst))
    print(f"wrote {args.output}: {inst.node_count} nodes, "
          f"{len(inst.edges)} edges, k={inst.k}")
    return 0


# -- bench -------------------------------------------------------------------

_GRID_DIMS = ((2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5))


def bench_instance(family, index, seed, problem):
    """Deterministic parameter schedule for benchmark families."""
    sub_seed = seed * 9973 + index
    m = 1 + index % 4
    k = 1 + index % 4
    wmax = (1, 2, 3, 5)[index % 4]
    if family == "grid":
        rows, cols = _GRID_DIMS[index % len(_GRID_DIMS)]
        return generators.gen_grid(rows, cols, m, k, wmax, sub_seed, problem=problem)
    if family == "sp":
        depth = 1 + index % 4
        return generators.gen_series_parallel(depth, m, k, wmax, sub_seed,
                                              problem=problem)
    if family == "hvc":
        kk = 2 + index % 3
        edges = min(2 + index % 3, 2 ** kk)
        _, inst = generators.gen_hypergraph_vc(kk, 2, edges, sub_seed)
        return inst
    raise ValueError(f"unknown family {family!r}")


def _bench_one(family, index, seed, problem, budget):
    inst = bench_instance(family, index, seed, problem)
    started = time.perf_counter()
    x, trace = solve(inst)
    wall_ms = int((time.perf_counter() - started) * 1000)
    alg = trace.alg_cost
    opt = ratio = None
    try:
        opt, _ = brute_force_opt(inst, budget)
    except BudgetError:
        opt = None
    if opt:
        ratio = alg / opt
    lp_by_level = {lv.level: lv.lp_value for lv in trace.levels}
    bound_by_level = {lv.level: lv.bound for lv in trace.levels}
    return {
        "instance_id": f"{family}-{problem}-{seed}-{index:03d}",
        "n": inst.node_count,
        "m_e": len(inst.edges),
        "k": inst.k,
        "ALG": alg,
        "OPT": opt,
        "ratio": ratio,
        "lp": lp_by_level,
        "bound": bound_by_level,
        "wall_ms": wall_ms,
    }


def run_bench(family, count, seed, problem="st", budget=None):
    budget = budget or OracleBudget()
    problems = ("st", "mst") if problem == "both" else (problem,)
    if family == "hvc":
        problems = ("st",)
    return [_bench_one(family, idx, seed, prob, budget)
            for idx in range(count) for prob in problems]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_report(records, path):
    max_k = max((rec["k"] for rec in records), default=0)
    header = ["instance_id", "n", "m_e", "k", "ALG", "OPT", "ratio"]
    header += [f"lp_level_{i}" for i in range(1, max_k + 1)]
    header += [f"bound_level_{i}" for i in range(1, max_k + 1)]
    header += ["wall_ms"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            row = [rec["instance_id"], rec["n"], rec["m_e"], rec["k"],
                   _fmt(rec["ALG"]), _fmt(rec["OPT"]), _fmt(rec["ratio"])]
            row += [_fmt(rec["lp"].get(i)) for i in range(1, max_k + 1)]
            row += [_fmt(rec["bound"].get(i)) for i in range(1, max_k + 1)]
            row += [rec["wall_ms"]]
            writer.writerow(row)


def _cmd_bench(args):
    budget = OracleBudget(max_edges=args.max_edges)
    records = run_bench(args.family, args.count, args.seed, args.problem, budget)
    write_report(records, args.report)
    worst = None
    for rec in records:
        if rec["ratio"] is not None:
            worst = rec if worst is None or rec["ratio"] > worst["ratio"] else worst
            if rec["ratio"] > guarantee_factor(rec["k"]) + 1e-9:
                print(f"guarantee violated on {rec['instance_id']}: "
                      f"ratio {rec['ratio']:.6f}")
                return 3
    print(f"bench: {len(records)} instances -> {args.report}")
    if worst:
        print(f"worst ratio {worst['ratio']:.4f} on {worst['instance_id']}")
    return 0


# -- gap ---------------------------------------------------------------------

def face_gap(record):
    """(integral exact cost) / (fractional LP optimum) for one face record."""
    demands = record["demands"]
    coverers = record["coverers"]
    if not demands:
        return None
    costs = [cov["cost"] for cov in coverers]
    exact, _ = exact_min_cover(
        len(demands), [(cov["cost"], cov["covers"]) for cov in coverers])
    rows = []
    for d in range(len(demands)):
        a = np.zeros(len(coverers))
        for c, cov in enumerate(coverers):
            if d in cov["covers"]:
                a[c] = 1.0
        rows.append((a, 1.0))
    res = simplex_min(LinearProgram(np.array(costs, dtype=float), rows))
    if res.status != "optimal":
        raise InvariantError("face LP should always be solvable")
    if res.value <= 1e-12:
        return 1.0
    return exact / res.value


def run_gap(family, count, seed, problem="st"):
    """Per-face integrality gaps across a generated family; returns records."""
    out = []
    for idx in range(count):
        inst = bench_instance(family, idx, seed, problem)
        _, trace = solve(inst)
        gaps = []
        for lv in trace.levels:
            for record in lv.faces:
                g = face_gap(record)
                if g is not None:
                    gaps.append((lv.level, record["face"], g))
        out.append({
            "instance_id": f"{family}-{problem}-{seed}-{idx:03d}",
            "gaps": gaps,
        })
    return out


def _cmd_gap(args):
    results = run_gap(args.family, args.count, args.seed, args.problem)
    worst = 0.0
    face_count = 0
    rows = []
    for rec in results:
        local = max((g for _, _, g in rec["gaps"]), default=0.0)
        face_count += len(rec["gaps"])
        worst = max(worst, local)
        rows.append((rec["instance_id"], len(rec["gaps"]), local))
        print(f"{rec['instance_id']}: {len(rec['gaps'])} faces, "
              f"max gap {local:.4f}")
    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance_id", "face_count", "max_gap"])
            for rid, cnt, local in rows:
                writer.writerow([rid, cnt, f"{local:.6f}"])
    print(f"gap: {face_count} faces, max {worst:.4f}")
    if worst > GAP_LIMIT:
        print("integrality gap limit exceeded")
        return 3
    return 0


# -- argument wiring -----------------------------------------------------------

def build_parser():
    parser = _Parser(prog="bulkrobust",
                     description="Bulk-robust network design on planar graphs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--trace", help="also write the trace alone to this path")
    p.add_argument("--lp-dump", help="write each level's covering LP as text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="write a generated instance")
    gsub = p.add_subparsers(dest="family", required=True, parser_class=_Parser)

    g = gsub.add_parser("grid")
    g.add_argument("--rows", type=int, default=3)
    g.add_argument("--cols", type=int, default=3)
    g.add_argument("--scenarios", type=int, default=2)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--weight-max", type=int, default=5)
    g.add_argument("--problem", choices=("st", "mst"), default="st")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("sp")
    g.add_argument("--depth", type=int, default=3)
    g.add_argument("--scenarios", type=int, default=2)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--weight-max", type=int, default=5)
    g.add_argument("--problem", choices=("st", "mst"), default="st")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("hvc")
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--part-size", type=int, default=2)
    g.add_argument("--edges", type=int, default=3)
    g.add_argument("--hypergraph-out")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a solution file")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-s", "--solution", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact optimum by brute force")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--max-edges", type=int, default=24)
    p.add_argument("--max-subsets", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="solve a generated family, write CSV")
    p.add_argument("--family", choices=("grid", "sp", "hvc"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--problem", choices=("st", "mst", "both"), default="st")
    p.add_argument("--max-edges", type=int, default=24)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gap", help="measure per-face integrality gaps")
    p.add_argument("--family", choices=("grid", "sp", "hvc"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--problem", choices=("st", "mst"), default="st")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_gap)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (InstanceError, BudgetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
