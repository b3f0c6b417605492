"""Command line front end.

Every subcommand accepts --json for a machine-readable payload with
sorted keys, so output bytes are stable across runs.  Exit codes:
0 all assertions pass, 1 an assertion failed or stdout was closed
early, 2 usage error.  Lines tagged "flagged" report known misprints in
the reproduced source and never affect the exit code.
"""

import argparse
import json
import os
import sys

from . import __version__
from .cartan import CartanError, flag_search, flag_test
from .catalog import CatalogError, get_structure, structure_names
from .dga import DgaError, check_operator, z_spaces
from .exterior import Subspace, form_literal
from .rep import CasimirError, casimir_decompose, invariants
from .restriction import RestrictionError, restrict_structure
from .scalar import WHITESPACE, Scalar, int_text, integer
from .stability import stability
from . import papercheck

__all__ = ["main"]


class UsageError(Exception):
    """A command-line value outside its range."""


USAGE_ERRORS = (CatalogError, DgaError, CartanError, RestrictionError,
                CasimirError, UsageError)


def _parse_params(text):
    if not text:
        return None
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise CatalogError("parameter %r is not of the form name=value"
                               % item)
        k, v = item.split("=", 1)
        k = k.strip(WHITESPACE)
        if not k:
            raise CatalogError("parameter %r has an empty name" % item)
        if k in out:
            raise CatalogError("parameter %r given twice" % k)
        try:
            out[k] = Scalar.parse(v.strip(WHITESPACE))
        except (ValueError, ZeroDivisionError) as exc:
            raise CatalogError("bad value for %r: %s" % (k, exc))
    return out


def _parse_flag(text):
    try:
        return tuple(integer(t) for t in text.split(","))
    except ValueError:
        raise CartanError("flag %r is not a comma-separated integer list"
                          % text)


def _emit(args, payload, human_lines):
    if args.json:
        payload = dict(payload)
        payload["tool"] = "edsx"
        payload["version"] = __version__
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _pick_generator(s, name):
    if name is not None:
        if name not in s.generators:
            raise CatalogError("structure %s has no generator %r; choices: %s"
                               % (s.name, name, ", ".join(sorted(s.generators))))
        return name
    if len(s.generators) == 1:
        return next(iter(s.generators))
    raise CatalogError("structure %s has several generators (%s); pass "
                       "--generator" % (s.name, ", ".join(sorted(s.generators))))


def _bool(b):
    if b is None:
        return "none"
    return "true" if b else "false"


def cmd_invariants(args):
    s = get_structure(args.structure)
    if args.degree is not None:
        if not 0 <= args.degree <= s.n:
            raise CatalogError("--degree %s outside 0..%d"
                               % (int_text(args.degree), s.n))
        basis = invariants(s.lie, args.degree)
        payload = {"command": "invariants", "structure": s.name,
                   "degree": args.degree, "dim": len(basis),
                   "basis": [form_literal(b) for b in basis],
                   "provenance": "derived"}
        lines = ["dim %d" % len(basis)]
        lines += ["  " + form_literal(b) for b in basis]
        _emit(args, payload, lines)
        return 0
    dims = {p: len(invariants(s.lie, p)) for p in range(1, s.n + 1)}
    payload = {"command": "invariants", "structure": s.name,
               "dims": {str(p): d for p, d in dims.items()},
               "provenance": "derived"}
    lines = ["degree %d: dim %d" % (p, d) for p, d in sorted(dims.items())]
    _emit(args, payload, lines)
    return 0


def cmd_stability(args):
    s = get_structure(args.structure)
    gname = _pick_generator(s, args.generator)
    rep = stability(s.generators[gname], sampled=args.sampled)
    payload = {"command": "stability", "structure": s.name,
               "generator": gname, "provenance": "derived"}
    payload.update(rep.to_json())
    lines = ["%s %s: orbit dim %d of %d, stable %s"
             % (s.name, gname, rep.orbit_dim, rep.full_dim,
                _bool(rep.stable)),
             "E-stable hyperplanes: %s"
             % (",".join(str(i) for i, v in sorted(rep.per_hyperplane.items())
                         if v) or "none")]
    if rep.sampled_ok is not None:
        lines.append("sampled non-coordinate hyperplanes E-stable: %s"
                     % _bool(rep.sampled_ok))
    _emit(args, payload, lines)
    return 0


def cmd_dga(args):
    s = get_structure(args.structure)
    chk = check_operator(s, args.operator, _parse_params(args.params))
    payload = {"command": "dga", "structure": s.name,
               "operator": args.operator, "provenance": "derived"}
    payload.update(chk.to_json())
    lines = ["leibniz %s" % _bool(chk.leibniz_ok),
             "f^2 = 0 %s" % _bool(chk.square_zero_ok),
             "extends to a derivation with d^2 = 0 %s"
             % _bool(chk.extends_ok),
             "equivariant extension %s"
             % ("found" if chk.equivariant_witness is not None else "none"),
             "all ok %s" % _bool(chk.all_ok())]
    _emit(args, payload, lines)
    return 0 if chk.all_ok() else 1


def cmd_zspaces(args):
    s = get_structure(args.structure)
    rep = z_spaces(s, args.operator, _parse_params(args.params))
    payload = {"command": "zspaces", "structure": s.name,
               "operator": args.operator, "provenance": "derived"}
    j = rep.to_json()
    payload.update(j)
    lines = ["dim Z' = %s" % j["z_prime_dim"],
             "dim Z = %s" % j["z_dim"],
             "dim Z'' = %s" % j["z_doubleprime_dim"]]
    _emit(args, payload, lines)
    return 0


def cmd_cartan(args):
    s = get_structure(args.structure)
    if args.search:
        if args.flag is not None:
            raise CartanError("--search chooses the flag; drop --flag")
        rep = flag_search(s)
    else:
        rep = flag_test(s, None if args.flag is None
                        else _parse_flag(args.flag))
    payload = {"command": "cartan", "structure": s.name,
               "provenance": "derived"}
    payload.update(rep.to_json())
    cs = rep.c_values[:len(rep.flag)]
    lines = ["c = [%s], ordinary %s"
             % (",".join(str(c) for c in cs), _bool(rep.ordinary))]
    if args.search or args.flag is not None:
        lines.append("flag (%s), codim Z_0 %d"
                     % (",".join(str(i) for i in rep.flag), rep.codim_z0))
    _emit(args, payload, lines)
    return 0


def cmd_restrict(args):
    s = get_structure(args.structure)
    w = None
    if args.drop is not None:
        if not 1 <= args.drop <= s.n:
            raise RestrictionError("--drop %s outside 1..%d"
                                   % (int_text(args.drop), s.n))
        w = Subspace.hyperplane(s.n, args.drop)
    rep = restrict_structure(s, args.operator, _parse_params(args.params), w)
    payload = {"command": "restrict", "structure": s.name,
               "operator": args.operator, "provenance": "derived"}
    j = rep.to_json()
    payload.update(j)
    lines = ["restriction of %s %s to coordinates (%s)"
             % (s.name, args.operator,
                ",".join(str(c) for c in rep.coords))]
    for g in sorted(rep.p_image_gens):
        lines.append("  p(%s) = %s" % (g, rep.p_image_gens[g]))
    lines.append("ker p condition %s" % _bool(rep.kerp_condition))
    if rep.f_w is None:
        lines.append("f_W: undefined (ker p condition fails)")
    else:
        for g in sorted(rep.f_w):
            lines.append("  f_W(%s) = %s" % (g, rep.f_w[g]))
    lines.append("dims Z' %s, projection %s, Z'_W %s"
                 % tuple(j["surjectivity_dims"]))
    lines.append("projection onto %s, dims match %s"
                 % (_bool(rep.projection_onto), _bool(rep.dims_match)))
    lines.append("relatively admissible %s, hypotheses %s"
                 % (_bool(rep.relatively_admissible),
                    _bool(rep.hypotheses_ok)))
    _emit(args, payload, lines)
    return 0


def cmd_decompose(args):
    s = get_structure(args.structure)
    dec = casimir_decompose(s.lie, args.space)
    payload = {"command": "decompose", "structure": s.name,
               "space": dec.space, "dim": dec.dim,
               "kappa": str(dec.kappa),
               "parts": [[d, m] for d, m in dec.parts],
               "components": dec.components, "provenance": "derived"}
    lines = ["%s: dim %d, %d irreducible components"
             % (dec.space, dec.dim, dec.components),
             "casimir scale kappa = %s (eigenvalue kappa*j*(j+1) "
             "on the spin-j block)" % dec.kappa]
    lines.append("  " + " + ".join(
        "%d*V%d" % (m, d) if m > 1 else "V%d" % d for d, m in dec.parts))
    _emit(args, payload, lines)
    return 0


def cmd_paper_check(args):
    if args.cases < 0:
        raise UsageError("--cases %s is negative" % int_text(args.cases))
    results = papercheck.run_all(args.cases)
    flagged = [l["text"] for res in results for l in res.lines
               if l["status"] == "flagged"]
    ok = all(res.passed for res in results)
    if args.json:
        payload = {"command": "paper-check", "cases": args.cases,
                   "checks": [res.to_json() for res in results],
                   "flagged": flagged, "passed": ok,
                   "tool": "edsx", "version": __version__}
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0 if ok else 1
    marks = {"pass": "[ OK ]", "fail": "[FAIL]", "flagged": "[FLAG]"}
    for res in results:
        print("== %s: %s" % (res.key, res.title))
        for l in res.lines:
            print("  %s %s" % (marks[l["status"]], l["text"]))
    print("passed %d/%d checks" % (sum(res.passed for res in results),
                                   len(results)))
    print("flagged discrepancies (%d):" % len(flagged))
    for text in flagged:
        print("  - %s" % text)
    return 0 if ok else 1


def _add_structure(p, required=True):
    p.add_argument("--structure", required=required,
                   metavar="NAME[:n]",
                   help="catalog structure, one of: %s"
                        % ", ".join(structure_names()))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="edsx",
        description="Exact invariant exterior calculus: stability, "
                    "derivation checks, integral-element dimensions and "
                    "flag tests for the built-in structure catalog.")
    ap.add_argument("--version", action="version",
                    version="edsx %s" % __version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("invariants",
                       help="invariant forms of a structure's algebra")
    _add_structure(p)
    p.add_argument("--degree", type=integer, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("stability", help="orbit dimension and stability "
                                         "of a catalog form")
    _add_structure(p)
    p.add_argument("--generator", default=None)
    p.add_argument("--sampled", action="store_true",
                   help="also test the fixed non-coordinate hyperplane "
                        "sample")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("dga", help="check an operator: Leibniz, square "
                                   "zero, extension")
    _add_structure(p)
    p.add_argument("--operator", required=True)
    p.add_argument("--params", default=None, metavar="k=v,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dga)

    p = sub.add_parser("zspaces", help="integral-element space dimensions "
                                       "of an operator")
    _add_structure(p)
    p.add_argument("--operator", required=True)
    p.add_argument("--params", default=None, metavar="k=v,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_zspaces)

    p = sub.add_parser("cartan", help="polar counts and ordinarity of a "
                                      "coordinate flag")
    _add_structure(p)
    p.add_argument("--flag", default=None, metavar="i1,i2,...")
    p.add_argument("--search", action="store_true",
                   help="search coordinate orders for an ordinary flag")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cartan)

    p = sub.add_parser("restrict", help="restrict a structure and operator "
                                        "to a coordinate hyperplane")
    _add_structure(p)
    p.add_argument("--operator", required=True)
    p.add_argument("--params", default=None, metavar="k=v,...")
    p.add_argument("--drop", type=integer, default=None,
                   help="coordinate to drop (default: the one off the "
                        "default flag's hyperplane)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("decompose", help="spin decomposition of a module "
                                         "of a three-dimensional algebra")
    _add_structure(p)
    p.add_argument("--space", default="t-gperp",
                   choices=("t-gperp", "quotient", "t-lambda2", "t-g"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("paper-check", help="run the full reproduction "
                                           "battery")
    p.add_argument("--cases", type=integer, default=1000,
                   help="randomized cases per property suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_paper_check)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except USAGE_ERRORS as exc:
        print("edsx: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what Python flushes at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
