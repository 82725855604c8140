"""Command-line surface.

Commands:
  score       rank every edge by the divergence cost of deleting it alone
  approx      delete edges, fit parameters, print recovered marginals
  map         approximate MAP through deletion; report the p/q quality ratio
  experiment  run a seeded (instance x method x selection x k) matrix to CSV

Exit codes: 0 success/converged, 2 not converged, 3 input error (any
``ModelError`` or ``OSError``), 4 capacity (induced width cap), 141 (128 +
SIGPIPE, printing nothing) stdout's reader gone, as in ``… | head -1``.  A
plan file is read against the loaded network (``netio.parse_plan``), and
``--map-vars`` by the spec's list reader (``harness._spec_list``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import divergence, harness, netio, parametrize
from .deletion import approximate_network
from .deletion import apply_params  # noqa: F401 (unused here; perfbench/test_perfbench.py checks it)
from .engine import WIDTH_CAP_DEFAULT, constrained_order, min_fill_order
from .mapapprox import default_map_vars
from .model import CapacityError, Evidence, ModelError, Network, validate_network
from .netio import FormatError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT = 3
EXIT_CAPACITY = 4
EXIT_PIPE = 141


def load_network(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".net"):
        net = netio.parse_hugin_subset(text)
    else:
        net = netio.parse_network(text)
    if net.kind != "original":
        raise FormatError(f"{path}: expected an original network, got kind {net.kind!r}")
    violations = validate_network(net)
    if violations:
        details = "; ".join(f"{v.variable}: {v.message}" for v in violations[:5])
        raise FormatError(f"{path}: invalid network ({details})")
    return net


def load_evidence(path: str | None, net: Network):
    if path is None:
        return Evidence({})
    with open(path, "r", encoding="utf-8") as fh:
        return netio.parse_evidence(fh.read(), net)


def _add_deletion_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delete", type=int, metavar="K", help="delete the K best-ranked edges")
    group.add_argument("--edges", metavar="PLANFILE", help="delete the edges listed in a plan file")
    group.add_argument(
        "--target-width", type=int, metavar="W",
        help="delete ranked edges until the width estimate drops to W",
    )
    p.add_argument("--method", choices=list(parametrize.METHODS), default="ed-kl")
    p.add_argument("--select", choices=list(netio.SELECTION_TAGS), default="guided")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--schedule", choices=list(parametrize.SCHEDULES), default="sequential")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warm-start", action="store_true",
                   help="initialize parameters from the edge-scoring optimizer")
    p.add_argument("--width-cap", type=int, default=WIDTH_CAP_DEFAULT)
    p.add_argument("--timings", choices=["none", "real"], default="none",
                   help="'real' puts wall-clock times in report rows (breaks byte determinism)")


def _resolve_edges(net, ev, args, width_fn):
    """Edge list to delete plus optional warm-start params, per the flags."""
    if args.edges is not None:
        with open(args.edges, "r", encoding="utf-8") as fh:
            return netio.parse_plan(fh.read(), net)
    rng = np.random.default_rng(args.seed)
    ranking, guided_params = harness.rank_edges(
        net, ev, args.select, rng, width_cap=args.width_cap
    )
    if args.delete is not None:
        if args.delete < 0 or args.delete > len(ranking):
            raise ModelError(
                f"cannot delete {args.delete} of {len(ranking)} edges"
            )
        k = args.delete
    else:
        k = None
        for candidate in range(len(ranking) + 1):
            _, nprime, _ = approximate_network(net, ranking[:candidate])
            if width_fn(nprime) <= args.target_width:
                k = candidate
                break
        if k is None:
            raise CapacityError(
                f"target width {args.target_width} is infeasible even after full deletion"
            )
    warm = None
    if args.warm_start:
        if guided_params is None:
            scores = divergence.score_edges(net, ev, width_cap=args.width_cap)
            by_edge = {(s.parent, s.child): s.params for s in scores}
            warm = [by_edge[e] for e in ranking[:k]]
        else:
            warm = guided_params[:k]
    return ranking[:k], warm


def _run_deletion(args, net, ev, edges, warm, **kwargs):
    """``harness.run_deletion_instance`` with the shared deletion flags."""
    return harness.run_deletion_instance(
        net,
        ev,
        edges,
        args.method,
        network_id=args.network,
        instance_id=0,
        selection_tag=args.select,
        warm_params=warm,
        max_iterations=args.max_iters,
        tolerance=args.tol,
        damping=args.damping,
        schedule=args.schedule,
        width_cap=args.width_cap,
        real_timings=args.timings == "real",
        **kwargs,
    )


def cmd_score(args) -> int:
    net = load_network(args.network)
    ev = load_evidence(args.evidence, net)
    scores = divergence.score_edges(net, ev, width_cap=args.width_cap)
    lines = [f"{s.parent} -> {s.child}\t{s.score:.12g}" for s in scores]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_approx(args) -> int:
    net = load_network(args.network)
    ev = load_evidence(args.evidence, net)
    edges, warm = _resolve_edges(
        net, ev, args, lambda n: min_fill_order(n).width
    )
    outcome = _run_deletion(args, net, ev, edges, warm, compute_marginals=True)
    for name in sorted(outcome.marginals, key=net.decl_index):
        dist = outcome.marginals[name]
        states = net.var(name).states
        rendered = " ".join(f"{s}={p:.12g}" for s, p in zip(states, dist))
        sys.stdout.write(f"{name}\t{rendered}\n")
    _emit_report([outcome.row], args.report)
    return EXIT_OK if outcome.row.converged else EXIT_NOT_CONVERGED


def cmd_map(args) -> int:
    net = load_network(args.network)
    ev = load_evidence(args.evidence, net)
    if args.map_vars is not None:
        map_vars = harness._spec_list(args.map_vars, "--map-vars")
    else:
        map_vars = default_map_vars(net, ev)
        sys.stdout.write("map-vars defaulted to unobserved roots: "
                         + ",".join(map_vars) + "\n")
    edges, warm = _resolve_edges(
        net, ev, args, lambda n: constrained_order(n, map_vars).width
    )
    outcome = _run_deletion(args, net, ev, edges, warm, map_vars=map_vars)
    result = outcome.map_result
    for name in map_vars:
        sys.stdout.write(f"{name} = {result.assignment[name]}\n")
    ratio_txt = "n/a" if result.ratio is None else f"{result.ratio:.12g}"
    sys.stdout.write(f"value {result.value:.12g} ratio {ratio_txt}\n")
    _emit_report([outcome.row], args.report)
    return EXIT_OK if outcome.row.converged else EXIT_NOT_CONVERGED


def cmd_experiment(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = harness.parse_experiment_spec(fh.read())
    rows = harness.run_experiment(spec, load_network=load_network)
    count = _emit_report(rows, args.out)
    sys.stderr.write(f"wrote {len(rows)} rows ({count} bytes)\n")
    return EXIT_OK


def _emit_report(rows, path) -> int:
    """Write the CSV report to ``path``, or to stdout without one; returns
    the byte count."""
    if path:
        with open(path, "wb") as fh:
            return netio.write_report(rows, fh)
    return netio.write_report(rows, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgedel",
        description="Approximate Bayesian network inference by edge deletion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="rank edges by single-edge deletion cost")
    p.add_argument("network")
    p.add_argument("evidence", nargs="?")
    p.add_argument("--out")
    p.add_argument("--width-cap", type=int, default=WIDTH_CAP_DEFAULT)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("approx", help="delete edges and fit compensating parameters")
    p.add_argument("network")
    p.add_argument("evidence", nargs="?")
    _add_deletion_flags(p)
    p.add_argument("--report", help="write the report row to this file")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("map", help="approximate MAP through edge deletion")
    p.add_argument("network")
    p.add_argument("evidence", nargs="?")
    p.add_argument("--map-vars", help="comma-separated MAP variables")
    _add_deletion_flags(p)
    p.add_argument("--report", help="write the report row to this file")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("experiment", help="run a seeded experiment spec to CSV")
    p.add_argument("spec")
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("seed", "width_cap", "target_width"):
            if (getattr(args, flag, None) or 0) < 0:
                raise ModelError(f"{flag.replace('_', '-')} must be >= 0")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Python's recipe: the exit flush then writes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return EXIT_CAPACITY
    except (ModelError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
