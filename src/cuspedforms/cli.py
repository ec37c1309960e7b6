"""Command-line front end.  One JSON object per output line; the exit code is
0 when every check asserted by the invoked command holds and 1 when one
fails.  A rejected input or a hit cap ends the command with exit code 2 and
one line {"error": <exception type>, "message": ...}."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import quasicocycle as qcm
from .chains import chain_to_json
from .config import RunConfig
from .errors import CuspedFormsError
from .graph import parse_vertex
from .lipschitz import parse_spec, read_number
from .words import GroupElem, parse_word


def _q(x):
    return str(x) if isinstance(x, Fraction) else x


def emit(obj: dict) -> None:
    print(json.dumps({k: _q(v) for k, v in obj.items()}, sort_keys=True))


def load_config(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        key, _, val = item.partition("=")
        overrides[key.strip()] = val.strip()
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    return RunConfig.from_dict(overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cuspedforms",
        description="Volume-form quasi-cocycles on the cusped graph of "
                    "F(a,b) x| Z rel Z^2, in exact rational arithmetic.")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selfcheck", help="build the engine; its constructors "
                       "check the startup invariants")

    p = sub.add_parser("graph", help="distances, balls, delta estimate")
    gsub = p.add_subparsers(dest="sub", required=True)
    g = gsub.add_parser("dist")
    g.add_argument("u")
    g.add_argument("v")
    g = gsub.add_parser("ball")
    g.add_argument("center")
    g.add_argument("--r", type=int, required=True)
    g = gsub.add_parser("delta")
    g.add_argument("--samples", type=int, default=200)
    g.add_argument("--radius", type=int, default=6)
    g.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eps", help="orientation cocycle values")
    esub = p.add_subparsers(dest="sub", required=True)
    e = esub.add_parser("eval")
    e.add_argument("words", nargs=3)

    p = sub.add_parser("alpha", help="quasi-cocycle evaluation and reports")
    asub = p.add_subparsers(dest="sub", required=True)
    a = asub.add_parser("eval")
    a.add_argument("--f", required=True)
    a.add_argument("vertices", nargs=3)
    a = asub.add_parser("defect")
    a.add_argument("--f", required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--n", type=int, default=2000)
    a = asub.add_parser("am")
    a.add_argument("--f", required=True)
    a.add_argument("--m", type=int, required=True)
    a = asub.add_parser("certify")
    a.add_argument("--f", required=True)
    a.add_argument("--radii", default="1,2,3")
    a.add_argument("--ms", default="2,4,8,16")
    a.add_argument("--khat", default="1")
    a = asub.add_parser("rank")
    a.add_argument("--f", action="append", required=True)
    a.add_argument("--ms", default="4,9,16")

    p = sub.add_parser("cycles", help="emit c, d_m, e_m, A_m and checks")
    p.add_argument("--m", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        return run(args)
    except (CuspedFormsError, ValueError, OSError) as e:
        # the package raises ValueError only to reject an input: a vertex,
        # word, f spec, m or config value; OSError names a file the input
        # names that cannot be read
        emit({"error": type(e).__name__, "message": str(e)})
        return 2


def run(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    ok = True

    if args.command == "selfcheck":
        emit(cfg.selfcheck())
        return 0

    qc = cfg.build()
    graph = qc.graph

    if args.command == "graph":
        if args.sub == "dist":
            d = graph.distance(parse_vertex(args.u), parse_vertex(args.v))
            emit({"d": d})
        elif args.sub == "ball":
            ball = graph.ball(parse_vertex(args.center), args.r)
            emit({"size": len(ball),
                  "vertices": sorted(str(v) for v in ball)})
        else:
            delta, skipped = graph.estimate_delta(args.samples, args.radius,
                                                  args.seed)
            emit({"delta_hat": str(delta), "samples": args.samples,
                  "skipped": skipped, "radius": args.radius,
                  "seed": args.seed})

    elif args.command == "eps":
        value = qc.eps.on_words(*(parse_word(w) for w in args.words))
        emit({"eps": value})

    elif args.command == "alpha":
        f = parse_spec(args.f) if args.sub != "rank" else None
        if args.sub == "eval":
            pts = [parse_vertex(v) for v in args.vertices]
            fill = qc.engine.fill_triangle(*pts)
            emit({"value": qc.alpha(f, *pts), "fill_method": fill.method,
                  "fill_norm": fill.norm})
        elif args.sub == "defect":
            emit(dataclasses.asdict(qcm.defect_scan(qc, f, args.n,
                                                    args.seed)))
        elif args.sub == "am":
            value = qcm.evaluate_on_Am(qc, f, args.m)
            expected = 2 * (f(args.m) - f(0))
            ok = value == expected
            emit({"m": args.m, "value": value, "expected": expected,
                  "expected_abs": abs(expected), "ok": ok})
        elif args.sub == "certify":
            radii = [int(x) for x in args.radii.split(",")]
            ms = [int(x) for x in args.ms.split(",")]
            khat = read_number(args.khat)
            # both tables are built before either is printed, so a
            # rejected input prints its error line alone
            nontrivial = qcm.nontriviality_certificate(qc, f, ms)
            for row in qcm.bah_upper_bound_certificate(qc, f, radii, khat):
                ok = ok and row["vanishes"]
                emit({"table": "bah_upper_bound", **row})
            for row in nontrivial:
                emit({"table": "nontriviality", **row})
        else:  # rank
            fs = [parse_spec(s) for s in args.f]
            ms = [int(x) for x in args.ms.split(",")]
            emit({"rank": qcm.independence_rank(fs, ms),
                  "functions": args.f, "ms": ms})

    elif args.command == "cycles":
        m = args.m
        K = qcm.depth_of(m)
        psi = graph.psi
        c = qcm.build_c(psi)
        d = qcm.build_d(m, psi)
        e = qcm.build_e(m, psi)
        A = qcm.build_A(graph, m)
        aK = qcm.build_aK(K, psi)
        boundary = qcm.boundary_class(psi)
        checks = {
            "boundary_c": c.boundary() == boundary,
            "boundary_d": d.boundary() == -boundary + aK,
            "boundary_e": e.boundary() ==
                aK - aK.translate(graph, GroupElem("", m)),
            "boundary_A_zero": not A.boundary(),
            "A_norm": A.l1_norm() == 12 - Fraction(4, 2 ** K),
        }
        ok = all(checks.values())
        emit({"m": m, "K_m": K, "A_norm": A.l1_norm(), **checks})
        for name, chain in (("c", c), ("d_m", d), ("e_m", e), ("A_m", A)):
            emit({"chain": name, "terms": chain_to_json(chain)})

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
