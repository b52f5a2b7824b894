"""Command-line surface: simulation, analysis, conversion, verification,
compilation, decision oracles, and the showcase constructions.

Every subcommand reads JSON documents, writes a JSON report to stdout or
a file, and exits 0 on success, 1 when the answer is "no" or a
verification fails, 2 on input errors, and 3 when an exploration budget
is exceeded or a rule table, or the tables one builder fills, would have
more than `core.MAX_TABLE` rows.
DOT output of a produced network goes through --dot; --pretty indents
the report for reading.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import docs, gol
from .core import (
    DEFAULT_MAX_STATES,
    ArtifactError,
    BudgetExceededError,
    Network,
    analyze_orbit,
    check_config,
    network_from_json,
    network_to_json,
    orbit_at,
    step,
    to_dot,
    trace,
    walk_orbit,
)
from .csan import (
    InvalidCsanError,
    csan_from_json,
    csan_to_json,
    csan_to_network,
    circuit_encode,
    matrix_to_network,
)
from .circuit import circuit_from_json, circuit_to_json, closed_network
from .gadget import certificate_from_json, verify_certificate
from .glue import csan_glue, dowel_from_json, glue_networks
from .gnet import (
    NOR_2_2,
    GNetwork,
    GNetworkBuilder,
    gnetwork_from_json,
    gnetwork_to_json,
    gt_transient_network,
    prime_rotations,
)
from .problems import (
    PredChgInstance,
    PredInstance,
    ReachInstance,
    b_pred,
    h_counter_network,
    instance_from_json,
    odometer,
    parse_dimacs,
    pred_chg,
    reach,
    sat_pred_network,
    u_pred,
)
from .simulate import _advance, embedding_from_json, embedding_to_json, verify_simulation

def _kind(doc):
    return doc.get("format") if isinstance(doc, dict) else None


def _as_network(doc, path: str) -> Network | GNetwork:
    """The model of any document that describes a network; `path` names it in errors."""
    kind = _kind(doc)
    if kind == "network":
        return network_from_json(doc)
    if kind == "csan":
        return csan_to_network(csan_from_json(doc))
    if kind == "gnetwork":
        gn = gnetwork_from_json(doc)
        gn.network  # tabulated now, so a gate network without tables fails as it loads
        return gn
    if kind == "circuit":
        return closed_network(circuit_from_json(doc))
    if kind == "matrix":
        with docs.parsing(doc, "matrix", InvalidCsanError):
            return matrix_to_network(doc.get("kind", ""), doc.get("rows", ()))
    raise ArtifactError(f"{path}: no network in a {kind!r} document")


def _load_network(path: str) -> Network | GNetwork:
    return _as_network(docs.read(path), path)


def _parse_config(args, net: Network | GNetwork):
    if args.config is not None:
        raw = args.config
    elif args.config_file is not None:
        with open(args.config_file, encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raise ArtifactError("a configuration is required (--config or --config-file)")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"configuration is not JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ArtifactError("configuration must be a JSON array of states")
    return check_config(net, data)


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ArtifactError(f"{flag} must be at least 1, got {value}")


def _emit(args, doc) -> None:
    if args.output:
        docs.write(doc, args.output, pretty=args.pretty)
    else:
        print(json.dumps(doc, indent=2 if args.pretty else None))


def _emit_dot(args, net) -> None:
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(net))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report, exit_code)


def _cmd_simulate(args):
    net = _load_network(args.net)
    x = _parse_config(args, net)
    if args.t < 0:
        raise ArtifactError("time must be non-negative")
    if args.t > DEFAULT_MAX_STATES:
        # Past the state budget: no trace, and the time folds into the
        # orbit's cycle once a walk of at most that many states closes it.
        if args.trace:
            raise BudgetExceededError(
                f"a trace of {args.t} steps exceeds the budget of {DEFAULT_MAX_STATES} states"
            )
        path, tau, period = walk_orbit(net, x, DEFAULT_MAX_STATES)
        return {"t": args.t, "config": list(orbit_at(path, tau, period, args.t))}, 0
    if args.trace:
        rows = trace(net, x, args.t)
        return {"t": args.t, "config": list(rows[-1]), "trace": [list(r) for r in rows]}, 0
    # Within the budget the time folds as soon as Brent's search meets the cycle.
    return {"t": args.t, "config": list(_advance(functools.partial(step, net), x, args.t))}, 0


def _cmd_analyze(args):
    _require_positive("--max-states", args.max_states)
    net = _load_network(args.net)
    x = _parse_config(args, net)
    res = analyze_orbit(net, x, budget=args.max_states)
    return {"transient": res.transient, "period": res.period}, 0


def _cmd_convert(args):
    if args.to == "circuit" and args.dot:
        raise ArtifactError("--dot draws a network, and --to circuit produces none")
    doc = docs.read(args.input)
    if args.to == "circuit":
        if _kind(doc) == "circuit":
            return circuit_to_json(circuit_from_json(doc)), 0
        return circuit_to_json(circuit_encode(_as_network(doc, args.input))), 0
    net = _as_network(doc, args.input)
    _emit_dot(args, net)
    return network_to_json(net), 0


def _cmd_glue(args):
    d1 = docs.read(args.first)
    d2 = docs.read(args.second)
    dowel = dowel_from_json(docs.read(args.dowel))
    if _kind(d1) == _kind(d2) == "csan":
        glued = csan_glue(csan_from_json(d1), csan_from_json(d2), dowel)
        _emit_dot(args, glued)
        return csan_to_json(glued), 0
    net = glue_networks(_as_network(d1, args.first), _as_network(d2, args.second), dowel)
    _emit_dot(args, net)
    return network_to_json(net), 0


def _cmd_verify_sim(args):
    _require_positive("--samples", args.samples)
    source = _load_network(args.source)
    host = _load_network(args.host)
    emb = embedding_from_json(docs.read(args.embedding))
    rep = verify_simulation(
        source, host, emb, mode=args.mode, samples=args.samples, seed=args.seed
    )
    doc = {
        "ok": rep.ok,
        "mode": rep.mode,
        "checked": rep.checked,
        "failures": list(rep.failures),
    }
    if rep.seed is not None:
        doc["seed"] = rep.seed
    if rep.counterexample is not None:
        doc["counterexample"] = list(rep.counterexample)
    return doc, 0 if rep.ok else 1


def _cmd_verify_cert(args):
    if args.certificate:
        cert = certificate_from_json(docs.read(args.certificate))
    else:
        cert = gol.build_certificate()
    rep = verify_certificate(cert)
    doc = {"ok": rep.ok, "checked": rep.checked, "failures": list(rep.failures)}
    return doc, 0 if rep.ok else 1


def _cmd_compile(args):
    gn = gnetwork_from_json(docs.read(args.gnet))
    cert = None
    if args.certificate:
        cert = certificate_from_json(docs.read(args.certificate))
    compiled, emb = gol.compile_to_gol(gn, cert)
    _emit_dot(args, compiled)
    return {"csan": csan_to_json(compiled), "embedding": embedding_to_json(emb)}, 0


def _sample_nor_pair():
    b = GNetworkBuilder(2)
    g0, outs0 = b.new_gate(NOR_2_2)
    g1, outs1 = b.new_gate(NOR_2_2)
    b.connect(g0, outs1)
    b.connect(g1, outs0)
    return b.build()


def _cmd_gol(args):
    cert = gol.build_certificate()
    cert_rep = cert.report  # compile_to_gol reads the same report
    gn = _sample_nor_pair()
    compiled, emb = gol.compile_to_gol(gn, cert)
    sim_rep = verify_simulation(gn, compiled, emb, mode="exhaustive")
    doc = {
        "certificate": {
            "ok": cert_rep.ok,
            "checked": cert_rep.checked,
            "failures": list(cert_rep.failures),
        },
        "simulation": {
            "ok": sim_rep.ok,
            "mode": sim_rep.mode,
            "checked": sim_rep.checked,
            "failures": list(sim_rep.failures),
        },
        "host_nodes": compiled.n,
        "time": emb.time,
    }
    return doc, 0 if cert_rep.ok and sim_rep.ok else 1


def _solve_named(kind: str, path: str, max_states: int) -> bool:
    inst = instance_from_json(docs.read(path))
    if kind in ("u-pred", "b-pred"):
        if not isinstance(inst, PredInstance):
            raise ArtifactError(f"{path}: not a prediction instance")
        if kind == "u-pred":
            if inst.time_format != "unary":
                raise ArtifactError(f"{path}: u-pred requires unary time")
            return u_pred(inst)
        return b_pred(inst, max_states)
    if kind == "pred-chg":
        if not isinstance(inst, PredChgInstance):
            raise ArtifactError(f"{path}: not a change instance")
        return pred_chg(inst, max_states)
    if not isinstance(inst, ReachInstance):
        raise ArtifactError(f"{path}: not a reachability instance")
    return reach(inst, max_states)


def _cmd_oracle(args):
    _require_positive("--max-states", args.max_states)
    _require_positive("--jobs", args.jobs)
    if args.jobs > 1 and len(args.instances) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            answers = list(
                pool.map(
                    _solve_named,
                    [args.problem] * len(args.instances),
                    args.instances,
                    [args.max_states] * len(args.instances),
                )
            )
    else:
        answers = [_solve_named(args.problem, p, args.max_states) for p in args.instances]
    doc: dict = {"problem": args.problem, "answers": answers}
    if len(answers) == 1:
        doc["answer"] = answers[0]
    return doc, 0 if all(answers) else 1


def _cmd_construct(args):
    kind = args.kind
    if kind == "odometer":
        net = odometer(args.n)
        doc = {"kind": kind, "n": args.n, "net": network_to_json(net)}
    elif kind == "primes":
        net, marked = prime_rotations(args.n)
        doc = {
            "kind": kind,
            "n": args.n,
            "net": network_to_json(net),
            "gnetwork": gnetwork_to_json(net),
            "marked": list(marked),
        }
    elif kind == "hcounter":
        net = h_counter_network(args.n)
        doc = {"kind": kind, "n": args.n, "net": network_to_json(net)}
    elif kind == "sat-pred":
        if not args.cnf:
            raise ArtifactError("sat-pred needs --cnf with a DIMACS file")
        with open(args.cnf, encoding="utf-8") as fh:
            n_vars, clauses = parse_dimacs(fh.read())
        net = sat_pred_network(clauses, n_vars)
        doc = {
            "kind": kind,
            "n_vars": n_vars,
            "clauses": [list(c) for c in clauses],
            "net": network_to_json(net),
        }
    else:  # gt-transient
        net, start = gt_transient_network(args.n)
        doc = {
            "kind": kind,
            "n": args.n,
            "net": network_to_json(net),
            "gnetwork": gnetwork_to_json(net),
            "start": list(start),
        }
    _emit_dot(args, net)
    return doc, 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_common(p, dot: bool = False) -> None:
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.add_argument("--pretty", action="store_true", help="indent the JSON report")
    if dot:
        p.add_argument("--dot", help="also write the produced network as DOT")


def _add_config(p) -> None:
    p.add_argument("--config", help="configuration as a JSON array")
    p.add_argument("--config-file", help="file holding the configuration array")


class UsageError(ArtifactError):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError instead of exiting.

    Subparsers are made of the same class, so a usage error anywhere in
    the command line reaches `run`, which returns exit code 2.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artifact", description="Automata-network toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="advance a configuration t steps")
    p.add_argument("net")
    _add_config(p)
    p.add_argument("-t", type=int, required=True, help="number of steps")
    p.add_argument("--trace", action="store_true", help="include every step")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("analyze", help="transient and period of an orbit")
    p.add_argument("net")
    _add_config(p)
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    _add_common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("input")
    p.add_argument("--to", choices=("network", "circuit"), default="network")
    _add_common(p, dot=True)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("glue", help="glue two networks along a dowel")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("dowel")
    _add_common(p, dot=True)
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("verify-sim", help="check a block simulation")
    p.add_argument("source")
    p.add_argument("host")
    p.add_argument("embedding")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_sim)

    p = sub.add_parser("verify-cert", help="check a coherence certificate")
    p.add_argument("certificate", nargs="?", help="defaults to the built-in NOR certificate")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_cert)

    p = sub.add_parser("compile", help="compile a NOR gate network into a lifelike host")
    p.add_argument("gnet")
    p.add_argument("--certificate")
    _add_common(p, dot=True)
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("gol", help="bundled lifelike pipeline")
    p.add_argument("action", choices=("demo",))
    _add_common(p)
    p.set_defaults(handler=_cmd_gol)

    p = sub.add_parser("oracle", help="answer decision-problem instances")
    p.add_argument("problem", choices=("u-pred", "b-pred", "pred-chg", "reach"))
    p.add_argument("instances", nargs="+", help="instance JSON files")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("construct", help="build a showcase network")
    p.add_argument(
        "kind", choices=("odometer", "primes", "hcounter", "sat-pred", "gt-transient")
    )
    p.add_argument("--n", type=int, default=2, help="size parameter")
    p.add_argument("--cnf", help="DIMACS file for sat-pred")
    _add_common(p, dot=True)
    p.set_defaults(handler=_cmd_construct)

    return parser


# parse_args leaves the parser unchanged, so one serves every call.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        _emit(argparse.Namespace(output=None, pretty=False), {"error": str(exc)})
        return 2
    try:
        doc, code = args.handler(args)
        _emit(args, doc)
        return code
    except BudgetExceededError as exc:
        _emit(args, {"error": str(exc)})
        return 3
    except (ArtifactError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit(args, {"error": str(exc)})
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
