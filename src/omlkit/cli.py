"""Command-line front end.

One command per run; deterministic output bytes for fixed input and
flags.  Exit codes: 0 success (an UNSAT verdict is an answer, not an
error), 2 parse or usage error, 3 validation failure, 4 cap exceeded.
The structured format is one JSON document per run mirroring the text
output; keys are sorted, so bytes are stable there too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .boolalg import enumerate_blocks
from .core import FiniteOML, center
from .errors import CapExceeded, ParseError, SizeCap, ValidationError
from .greechie import export_dot, parse_greechie, paste
from .interchange import parse_interchange
from .modal import modal_extend, possibility_sections, possibility_space
from .sheaf import build_poset, render_answer, solve_global
from .vectors import ContextHypergraph, parse_vectors

SUFFIX_KIND = {".gd": "gd", ".ksv": "ksv", ".oml": "oml"}


class UsageError(Exception):
    """Bad flags or selectors; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("input", help="input file (.gd, .ksv, or .oml)")
    shared.add_argument("--kind", choices=("gd", "ksv", "oml"),
                        help="input format; overrides extension detection")
    shared.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="omlkit",
        description="Finite orthomodular lattices, contextual valuations, "
                    "and modal actualization.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[shared],
                   help="parse and validate, print a summary")
    sub.add_parser("blocks", parents=[shared],
                   help="list maximal blocks or contexts")
    sub.add_parser("center", parents=[shared],
                   help="list the central elements of a lattice")

    p = sub.add_parser("solve", parents=[shared],
                       help="search for a global valuation")
    p.add_argument("--mode", choices=("all", "blocks"),
                   help="poset mode (default: all for lattices, "
                        "blocks for vector inputs)")
    p.add_argument("--enumerate-all", type=int, metavar="N", dest="enumerate_all",
                   help="enumerate every global section, failing beyond N")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for a long search (default: 1); the "
                        "search starts in-process and moves to a pool only once it "
                        "has cost about one pool start-up")

    p = sub.add_parser("modal", parents=[shared],
                       help="print box/diamond tables and the axiom report")
    p.add_argument("--extend", default="identity", metavar="SPEC",
                   help="modal extension: identity or diagonal:k")

    p = sub.add_parser("actualize", parents=[shared],
                       help="actualize a proposition against a possibility "
                            "valuation")
    p.add_argument("--extend", default="identity", metavar="SPEC",
                   help="modal extension: identity or diagonal:k")
    p.add_argument("--context", type=int, required=True, metavar="IDX",
                   help="block index as listed by the blocks command")
    p.add_argument("--prop", required=True, metavar="NAME",
                   help="element name inside the chosen block")
    p.add_argument("--nu", type=int, required=True, metavar="IDX",
                   help="index of the possibility valuation")

    sub.add_parser("export", parents=[shared],
                   help="emit DOT text for a diagram or vector input")
    return parser


def _load(args):
    path = Path(args.input)
    kind = args.kind or SUFFIX_KIND.get(path.suffix)
    if kind is None:
        raise UsageError(f"cannot infer the format of {path.name!r}; "
                         "pass --kind gd|ksv|oml")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None
    if kind == "gd":
        return kind, parse_greechie(text)
    if kind == "ksv":
        return kind, parse_vectors(text)
    return kind, parse_interchange(text)


def _lattice_of(kind, payload) -> FiniteOML:
    if kind == "gd":
        return paste(payload)
    if kind == "oml":
        return payload
    raise UsageError("this command needs a lattice input (.gd or .oml)")


def _parse_extend(spec: str) -> str:
    if spec == "identity":
        return spec
    if spec.startswith("diagonal:"):
        arity = spec.split(":", 1)[1]
        if arity.isdigit() and int(arity) >= 1:
            return spec
    raise UsageError(f"bad --extend value {spec!r}; "
                     "expected identity or diagonal:k")


def _cmd_check(args, kind, payload):
    if kind == "ksv":
        h: ContextHypergraph = payload
        doc = {"input": "vectors", "dim": h.dim, "rays": len(h.vectors),
               "contexts": len(h.contexts),
               "submaximal_dropped": h.submaximal_cliques, "ok": True}
        text = (f"input: vectors\ndim: {h.dim}\nrays: {len(h.vectors)}\n"
                f"contexts: {len(h.contexts)}\n"
                f"submaximal-dropped: {h.submaximal_cliques}\nok\n")
        return text, doc
    L = _lattice_of(kind, payload)
    central = [L.names[z] for z in center(L)]
    label = "greechie" if kind == "gd" else "interchange"
    lines = [f"input: {label}"]
    doc = {"input": label}
    if kind == "gd":
        lines.append(f"blocks: {len(payload.blocks)}")
        lines.append(f"atoms: {len(payload.atoms)}")
        doc["blocks"] = len(payload.blocks)
        doc["atoms"] = len(payload.atoms)
    lines.append(f"elements: {L.n}")
    lines.append("center: " + " ".join(central))
    lines.append("ok")
    doc.update({"elements": L.n, "center": central, "ok": True})
    return "\n".join(lines) + "\n", doc


def _cmd_blocks(args, kind, payload):
    if kind == "ksv":
        h: ContextHypergraph = payload
        rows = [[h.vertices[v] for v in ctx] for ctx in h.contexts]
        text = "".join(f"C{i}: " + " ".join(row) + "\n"
                       for i, row in enumerate(rows))
        return text, {"contexts": rows}
    L = _lattice_of(kind, payload)
    rows = [[L.names[a] for a in b.atoms] for b in enumerate_blocks(L)]
    text = "".join(f"B{i}: " + " ".join(row) + "\n"
                   for i, row in enumerate(rows))
    return text, {"blocks": rows}


def _cmd_center(args, kind, payload):
    L = _lattice_of(kind, payload)
    central = [L.names[z] for z in center(L)]
    return "".join(f"{name}\n" for name in central), {"center": central}


def _cmd_solve(args, kind, payload):
    if kind == "ksv":
        obj = payload
        mode = args.mode or "blocks"
        if mode != "blocks":
            raise UsageError("vector inputs only support --mode blocks")
    else:
        obj = _lattice_of(kind, payload)
        mode = args.mode or "all"
    poset = build_poset(obj, mode)
    enumerate_all = args.enumerate_all is not None
    if enumerate_all and args.enumerate_all < 1:
        raise UsageError("--enumerate-all needs a positive cap")
    if args.workers < 1:
        raise UsageError("--workers needs a positive count")
    kwargs = {"enumerate_all": enumerate_all, "workers": args.workers}
    if enumerate_all:
        kwargs["solution_cap"] = args.enumerate_all
    result = solve_global(poset, **kwargs)
    doc = {
        "verdict": result.verdict,
        "enumerated": result.enumerated,
        "certificate": list(result.certificate) if result.certificate else None,
        "sections": [
            {s.poset.nodes[w].label: s.choice[i] for i, w in enumerate(s.domain)}
            for s in result.sections
        ],
    }
    return render_answer(result), doc


def _hom_lines(host, hom):
    for x in hom.domain.carrier:
        yield f"{host.names[x]}: {hom.value(x)}"


def _cmd_modal(args, kind, payload):
    L = _lattice_of(kind, payload)
    E = modal_extend(L, _parse_extend(args.extend))
    M = E.structure
    host = M.lattice
    space = possibility_space(E)
    n_sections = len(possibility_sections(space))
    central = [host.names[z] for z in M.central]
    space_names = [host.names[x] for x in space.algebra.carrier]

    lines = [f"elements: {host.n}", "center: " + " ".join(central), "box:"]
    lines += [f"{host.names[x]}: {host.names[int(M.box[x])]}"
              for x in host.elements]
    lines.append("diamond:")
    lines += [f"{host.names[x]}: {host.names[int(M.diamond[x])]}"
              for x in host.elements]
    lines.append("axioms:")
    report = M.axioms  # saturate's own audit, not a second evaluation
    for r in report.results:
        line = f"{r.name} {'pass' if r.passed else 'fail'} {r.statement}"
        if r.witness:
            line += " [" + " ".join(f"{k}={v}" for k, v in sorted(r.witness.items())) + "]"
        lines.append(line)
    lines.append("possibility-space: " + " ".join(space_names))
    lines.append(f"sections: {n_sections}")

    doc = {
        "elements": host.n,
        "center": central,
        "box": {host.names[x]: host.names[int(M.box[x])] for x in host.elements},
        "diamond": {host.names[x]: host.names[int(M.diamond[x])]
                    for x in host.elements},
        "axioms": [{"name": r.name, "statement": r.statement,
                    "passed": r.passed, "witness": r.witness}
                   for r in report.results],
        "possibility_space": space_names,
        "sections": n_sections,
    }
    return "\n".join(lines) + "\n", doc


def _cmd_actualize(args, kind, payload):
    from .modal import actualize

    L = _lattice_of(kind, payload)
    E = modal_extend(L, _parse_extend(args.extend))
    blocks = enumerate_blocks(L)
    if not 0 <= args.context < len(blocks):
        raise UsageError(f"--context {args.context} out of range "
                         f"(have {len(blocks)} blocks)")
    W = blocks[args.context]
    try:
        q = L.index(args.prop)
    except KeyError:
        raise UsageError(f"no element named {args.prop!r}") from None
    nus = possibility_sections(possibility_space(E))
    if not 0 <= args.nu < len(nus):
        raise UsageError(f"--nu {args.nu} out of range "
                         f"(have {len(nus)} valuations)")
    section = actualize(E, W, q, nus[args.nu])

    host = E.host
    P = section.poset
    top = P.maximal_nodes()[0]
    hom = section.hom_at(top)
    lines = ["section:"]
    lines += [f"{P.nodes[w].label}: {section.choice[i]}"
              for i, w in enumerate(section.domain)]
    lines.append("values:")
    lines += list(_hom_lines(host, hom))
    doc = {
        "section": {P.nodes[w].label: section.choice[i]
                    for i, w in enumerate(section.domain)},
        "values": {host.names[x]: hom.value(x) for x in hom.domain.carrier},
    }
    return "\n".join(lines) + "\n", doc


def _cmd_export(args, kind, payload):
    if kind == "oml":
        raise UsageError("export needs a diagram or vector input (.gd or .ksv)")
    dot = export_dot(payload)
    return dot, {"dot": dot}


_HANDLERS = {
    "check": _cmd_check,
    "blocks": _cmd_blocks,
    "center": _cmd_center,
    "solve": _cmd_solve,
    "modal": _cmd_modal,
    "actualize": _cmd_actualize,
    "export": _cmd_export,
}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        kind, payload = _load(args)
        text, doc = _HANDLERS[args.command](args, kind, payload)
    except UsageError as e:
        return _fail(2, str(e))
    except ParseError as e:
        return _fail(2, str(e))
    except (SizeCap, CapExceeded) as e:
        return _fail(4, str(e))
    except ValidationError as e:
        detail = ""
        if e.witness:
            detail = " [witness: " + ", ".join(str(w) for w in e.witness) + "]"
        return _fail(3, f"{e.law}: {e}{detail}")

    if args.format == "structured":
        doc = {"command": args.command, **doc}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
