"""Command-line front end: analyze, verify, bracket, lint."""

from __future__ import annotations

import argparse
import os
import sys
import time

from .expr import render_expr
from .flatness import (Budgets, CandidateCountMismatch, NotLinearizable,
                       analyze, verify_flat_output)
from .jetgeom import MultiIndex, ad_pow
from .prolong import build_prolonged
from .report import AnalysisReport
from .sysdsl import DslError, emit_report, parse_system

EXIT_FLAT = 0
EXIT_NOT_FLAT = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70      # sysexits EX_SOFTWARE: a library error, never a verdict
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout closed early, never a verdict


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatcheck",
        description="decide flatness by pure prolongation of a control system")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help=".flt system definition")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=5)
        p.add_argument("--max-k", type=int, default=None)
        p.add_argument("--max-prolong", type=int, default=None)
        p.add_argument("--ansatz-degree", type=int, default=2)

    pa = sub.add_parser("analyze", help="run the full prolongation analysis")
    common(pa)
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--trace", action="store_true")
    pv = sub.add_parser("verify", help="verify the file's flatoutput candidates")
    common(pv)
    pv.add_argument("--prolong", type=str, default=None,
                    help="comma-separated prolongation orders j1,j2,...")
    pb = sub.add_parser("bracket", help="print iterated Lie brackets")
    common(pb)
    pb.add_argument("fields", nargs=2, help="g0 or gI (e.g. g0 g1)")
    pb.add_argument("--pow", type=int, default=1)
    pb.add_argument("--prolong", type=str, default=None)
    pl = sub.add_parser("lint", help="parse and validate only")
    common(pl)
    return ap


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FLATCHECK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DslError("FLATCHECK_SEED must be an integer")
    return 0


def _budgets(args) -> Budgets:
    caps = {"samples": args.samples, "ansatz_degree": args.ansatz_degree,
            "max_k": args.max_k, "max_prolong": args.max_prolong}
    for name, value in caps.items():
        if value is not None and value <= 0:
            raise DslError("%s must be positive" % name)
    return Budgets(seed=_seed(args), **caps)


def _parse_prolong(text: str, m: int) -> MultiIndex:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise DslError("--prolong expects comma-separated integers")
    if len(parts) != m or any(p < 0 for p in parts):
        raise DslError("--prolong needs %d nonnegative integers" % m)
    return MultiIndex(parts)


def _load(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise DslError(str(err))
    return parse_system(text)


def _print_text_report(rep: AnalysisReport, trace: bool):
    label = {"p2_flat": "flat by pure prolongation",
             "not_p2_flat": "not flat by pure prolongation",
             "inconclusive": "inconclusive (budget exhausted)"}[rep.verdict]
    print("system %s: %s" % (rep.system, label))
    if rep.verdict == "p2_flat":
        print("  j_min          = %s" % (list(rep.j_min),))
        print("  k_star         = %d" % rep.k_star)
        print("  kappa          = %s" % (list(rep.kappa),))
        print("  permutation    = %s" % (list(rep.input_permutation),))
        if rep.flat_outputs:
            print("  flat outputs   = %s" % ", ".join(rep.flat_outputs))
        else:
            print("  flat outputs   = (ansatz search found none)")
        if rep.singular_locus:
            print("  singular locus = %s" % "; ".join(rep.singular_locus))
    elif rep.witness:
        print("  reason: %s" % rep.witness.get("reason"))
        for ent in rep.witness.get("per_initialization", []):
            print("  keep %s [%s]: %s at k=%s" %
                  (ent["kept_channels"], ent["variant"], ent["outcome"], ent["k"]))
            for w in ent.get("witnesses", [])[:1]:
                print("    l=%s  [%s, %s] = %s  (not in Delta)" %
                      (w["l"], w["pair"][0], w["pair"][1], w["bracket"]))
    for note in rep.warnings:
        print("  note: %s" % note)
    if trace:
        for t in rep.initializations:
            print("  initialization keep=%s variant=%s -> %s%s" % (
                list(t.kept), t.variant, t.outcome,
                " j=%s" % (list(t.candidate),) if t.candidate else ""))
            for st in t.steps:
                print("    k=%d box=%d sigma_Delta=%s sigma_GammaDelta=%s "
                      "witness=%s" % (st.k, st.box, list(st.sigma_delta),
                                      list(st.sigma_gamma_delta), st.witness_l))


def cmd_analyze(args, budgets: Budgets) -> int:
    sysdef = _load(args)
    t0 = time.perf_counter()
    rep = analyze(sysdef, budgets)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.json:
        sys.stdout.write(emit_report(rep))
    else:
        _print_text_report(rep, args.trace)
        print("  elapsed        = %.0f ms" % elapsed)
    return {"p2_flat": EXIT_FLAT, "not_p2_flat": EXIT_NOT_FLAT,
            "inconclusive": EXIT_INCONCLUSIVE}[rep.verdict]


def cmd_verify(args, budgets: Budgets) -> int:
    sysdef = _load(args)
    if not sysdef.declared_flat_outputs:
        raise DslError("no flatoutput line in %s" % args.input)
    if args.prolong is not None:
        j = _parse_prolong(args.prolong, sysdef.m)
    else:
        rep = analyze(sysdef, budgets)
        if rep.verdict != "p2_flat":
            print("system is not flat by pure prolongation; nothing to verify")
            return EXIT_NOT_FLAT
        j = MultiIndex(rep.j_min)
    ps = build_prolonged(sysdef, j, seed=budgets.seed, samples=budgets.samples,
                         base_point=sysdef.base_point().resolved())
    try:
        ok, cert = verify_flat_output(ps, sysdef.declared_flat_outputs)
    except (NotLinearizable, CandidateCountMismatch) as err:
        print("verification impossible: %s" % err)
        return EXIT_NOT_FLAT if isinstance(err, NotLinearizable) else EXIT_USAGE
    outs = ", ".join(render_expr(e) for e in sysdef.declared_flat_outputs)
    if ok:
        print("flat outputs verified at j=%s: %s" % (list(j), outs))
        print("  kappa assignment = %s" % cert.get("kappa_assignment"))
        return EXIT_FLAT
    print("flat output candidates rejected at j=%s: %s" % (list(j), outs))
    print("  %s" % cert)
    return EXIT_NOT_FLAT


def cmd_bracket(args, budgets: Budgets) -> int:
    sysdef = _load(args)
    j = _parse_prolong(args.prolong, sysdef.m) if args.prolong \
        else MultiIndex([0] * sysdef.m)
    ps = build_prolonged(sysdef, j, seed=budgets.seed, samples=budgets.samples)
    fields = {"g0": ps.g0}
    for i in range(1, sysdef.m + 1):
        fields["g%d" % i] = ps.gi[i - 1]
    for spec in args.fields:
        if spec not in fields:
            raise DslError("unknown field %r (use g0..g%d)" % (spec, sysdef.m))
    if args.pow < 0:
        raise DslError("--pow must be nonnegative")
    v, w = fields[args.fields[0]], fields[args.fields[1]]
    res = ad_pow(v, w, args.pow)
    print(res.render())
    return EXIT_FLAT


def cmd_lint(args, budgets: Budgets) -> int:
    sysdef = _load(args)
    print("%s: ok (n=%d, m=%d%s)" % (args.input, sysdef.n, sysdef.m,
                                     ", params: %s" % ", ".join(sysdef.params)
                                     if sysdef.params else ""))
    return EXIT_FLAT


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0,) else 0
    command = {"analyze": cmd_analyze, "verify": cmd_verify,
               "bracket": cmd_bracket, "lint": cmd_lint}[args.command]
    try:
        # the budget flags are shared by every subcommand: checked once here
        status = command(args, _budgets(args))
        sys.stdout.flush()      # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the interpreter's
        # flush at exit stays quiet, and exit with no verdict
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except DslError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:    # a crash is never a verdict
        print("internal error: %s: %s" % (type(err).__name__, err),
              file=sys.stderr)
        return EXIT_INTERNAL
    return status


if __name__ == "__main__":
    sys.exit(main())
