"""Command-line surface.

Subcommands: lvalue, classnumber, cesaro, dirichlet-avg, fock, qseries,
cocycle, report.  Exit codes: 0 all checks pass, 1 a verified identity
failed, 2 usage, configuration or file error.  Configuration precedence for
`report`: defaults < config file < LTWIST_* environment < flags.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from ltwist.exactnum import check_precision, parse_rat, scalar_str

FOCK_CHECK_IDS = ("2.3", "2.4", "3.1", "representation", "3.28", "scaling")
QSERIES_IDS = ("euler", "jacobi", "314", "316", "312", "char-cross")


def _char(N: int, index: int):
    from ltwist.characters import dirichlet_characters

    chars = dirichlet_characters(N)
    if not 0 <= index < len(chars):
        raise SystemExit(f"character index out of range (0..{len(chars)-1})")
    return chars[index]


def cmd_lvalue(args) -> int:
    from ltwist.lvalues import l_minus_one, l_zero

    chi = _char(args.modulus, args.char)
    value = l_zero(chi) if args.point == 0 else l_minus_one(chi)
    print(scalar_str(value))
    return 0


def cmd_classnumber(args) -> int:
    from ltwist.lvalues import class_number_imag_quadratic

    print(class_number_imag_quadratic(args.q))
    return 0


def cmd_cesaro(args) -> int:
    from ltwist import summation
    from ltwist.lvalues import l_minus_one, l_zero

    chi = _char(args.modulus, args.char)
    doc: dict = {
        "series": f"sum chi(i){'*i' if args.weight == 'linear' else ''} mod {args.modulus}",
    }
    if args.exact:
        value = summation.limit_exact_periodic(chi, args.weight)
        doc.update(mode="exact-closed-form", value=scalar_str(value), residual=None)
    else:
        from ltwist.report import fmt_value

        series = summation.periodic_series(chi, args.weight)
        rep = summation.limit_numeric(
            summation.partial_sums(series), args.depth, args.terms, rat_from(args.tol, "--tol")
        )
        if not rep.converged:
            doc.update(mode=rep.mode, value="divergent", residual=rep.residual,
                       error=rep.message)
            print(json.dumps(doc, sort_keys=True))
            return 1
        doc.update(mode=rep.mode, value=fmt_value(rep.value), residual=rep.residual)
    print(json.dumps(doc, sort_keys=True))
    return 0


def rat_from(text: str, name: str):
    """An exact rational from "p/q", else a float, read from the flag `name`."""
    try:
        return parse_rat(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} takes a number or p/q, p and q != 0 integers") from None


def cmd_dirichlet_avg(args) -> int:
    from ltwist import summation
    from ltwist.report import fmt_value

    chi = _char(args.modulus, args.char)
    if args.precision < 1:
        raise ValueError("--precision must be at least 1")
    value = summation.averaged_dirichlet(
        chi, rat_from(args.s, "--s"), args.terms, precision_bits=args.precision
    )
    value = complex(value)
    doc = {
        "series": f"averaged L(s, chi) at s={args.s}, chi index {args.char} mod {args.modulus}",
        "mode": f"numeric(n_terms={args.terms}, precision={args.precision})",
        "value": fmt_value(value),
        "residual": None,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_fock_verify(args) -> int:
    from ltwist import fock
    from ltwist.characters import dirichlet_characters, even_twist_group

    N, D = args.modulus, args.cutoff
    fock.check_cutoff(D)
    which = (args.theorem,) if args.theorem else FOCK_CHECK_IDS
    G = even_twist_group(N)
    rows = []
    case_log: list = []
    # each id runs its report row's function, so both give one verdict
    suites = {
        "2.3": lambda: fock.certify_lemma_2_3_suite(G, D),
        "2.4": lambda: fock.certify_theorem_2_4_suite(G, D, case_log=case_log),
        "3.1": lambda: fock.certify_theorem_3_1(G, D),
        "representation": lambda: fock.representation_suite(N, D),
        "3.28": lambda: fock.verify_eq_3_28_suite(N),
        "scaling": lambda: fock.certify_scaling_suite(dirichlet_characters(N)[0], D),
    }
    for check in which:
        try:
            res = suites[check]()
        except ValueError as exc:  # an empty window skips its check only
            if "cutoff too small" not in str(exc):
                raise
            rows.append({"check": check, "status": "skip", "cases": 0, "witness": str(exc)})
            continue
        rows.append({
            "check": check,
            "status": "pass" if res.passed else "fail",
            "cases": res.cases,
            "witness": None if res.passed else str(res.witness),
        })
        if check == "2.4" and args.json:
            rows[-1]["cases_detail"] = [
                {"chi1": a, "chi2": b, "m": m, "n": n,
                 "status": "pass" if ok else "fail",
                 "witness": None if ok else str(w)}
                for (a, b, m, n, ok, w) in case_log
            ]
    if args.json:
        print(json.dumps({"modulus": N, "cutoff": D, "rows": rows}, sort_keys=True))
    else:
        for r in rows:
            line = f"{r['status'].upper():4}  {r['check']:<8} cases={r['cases']}"
            if r["witness"]:
                line += f"  [{r['witness']}]"
            print(line)
    return 0 if all(r["status"] != "fail" for r in rows) else 1


def cmd_fock_qtrace(args) -> int:
    from ltwist import fock
    from ltwist.characters import even_twist_group

    G = even_twist_group(args.modulus)
    if args.order < 2 * G.period:  # qtrace's own bound, named as the flag
        raise ValueError(f"--order must be at least 2 * modulus = {2 * G.period}")
    fock.check_cutoff(args.order, "--order")
    series = fock.qtrace(G, args.index, args.mode, args.order)
    terms = ", ".join(
        f"q^({e}) * {scalar_str(c)}" for e, c in series.terms()[:12]
    )
    print(json.dumps({
        "modulus": args.modulus,
        "index": args.index,
        "mode": args.mode,
        "offset": str(series.offset),
        "terms": terms,
    }, sort_keys=True))
    return 0


def cmd_qseries_verify(args) -> int:
    from ltwist import qseries

    ident = args.identity
    order = args.order
    if order < 1:
        raise SystemExit("order must be positive")
    ok = True
    detail = ""
    if ident == "euler":
        ok = qseries.euler_check(order)
    elif ident == "jacobi":
        ok = qseries.jacobi_check(order, args.z_range)
    elif ident == "314":
        lhs, rhs = qseries.specialize_314(args.k, args.j, order)
        diff = lhs.first_difference(rhs)
        ok, detail = diff is None, "" if diff is None else f"first difference at {diff}"
    elif ident == "316":
        ok = qseries.verify_316(args.k, args.j, order)
    elif ident == "312":
        ok = qseries.eta_theta_check(order)
    elif ident == "char-cross":
        from ltwist import fock

        fock.check_qtrace_order(order, "--order")
        # the report row's function, so both give one verdict
        res = fock.verify_qtrace_char(args.k, order)
        if not res.passed:
            ok, detail = False, "i={}: first diff {}".format(*res.witness)
    print(json.dumps({"identity": ident, "order": order,
                      "status": "pass" if ok else "fail",
                      "detail": detail}, sort_keys=True))
    return 0 if ok else 1


def cmd_qseries_modular(args) -> int:
    from ltwist import qseries

    if args.order < 1:
        raise SystemExit("order must be positive")
    if args.k < 2:  # the family starts at k = 2
        raise ValueError("--k must be at least 2")
    check_precision(args.precision, "--precision")
    residual, _ = qseries.modular_s_check(
        args.k, order=args.order, precision_bits=args.precision
    )
    print(json.dumps({"k": args.k, "order": args.order,
                      "precision_bits": args.precision,
                      "residual": f"{residual:.6e}"}, sort_keys=True))
    return 0


def cmd_cocycle(args) -> int:
    from ltwist import cocycle

    sys_ = cocycle.build_system(args.field, args.height)
    dim, _ = cocycle.nullspace_dim(sys_)
    ok = dim == 2
    print(json.dumps({
        "field": args.field,
        "height": args.height,
        "dimension": dim,
        "basis_is_m_m3": ok,
        "status": "pass" if ok else "fail",
    }, sort_keys=True))
    return 0 if ok else 1


def cmd_report(args) -> int:
    from ltwist.report import (
        RunConfig,
        config_from_env,
        config_from_mapping,
        load_config_file,
        report_all,
        report_to_csv,
        report_to_json,
        report_to_text,
    )

    cfg = RunConfig()
    if args.config:
        cfg = load_config_file(args.config, cfg)
    cfg = config_from_env(os.environ, cfg)
    overrides = {key: val for key in ("cutoff", "seed", "n_terms", "precision_bits")
                 if (val := getattr(args, key, None)) is not None}
    if args.format:
        overrides["output_format"] = args.format
    if args.timings:
        overrides["timings"] = True
    cfg = config_from_mapping(overrides, cfg)
    doc = report_all(cfg)
    fmt = cfg.output_format
    text = {"json": report_to_json, "csv": report_to_csv, "text": report_to_text}[fmt](doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if doc["summary"]["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ltwist",
        description="Exact verification workbench for special L-values, "
                    "divergent-series axioms, twisted oscillator algebras, "
                    "and q-series identities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("lvalue", help="exact special value L(0) or L(-1)")
    q.add_argument("--modulus", type=int, required=True)
    q.add_argument("--char", type=int, default=0, help="character index")
    q.add_argument("--point", type=int, choices=(0, -1), required=True)
    q.set_defaults(fn=cmd_lvalue)

    q = sub.add_parser("classnumber", help="class number of Q(sqrt(-q))")
    q.add_argument("--q", type=int, required=True)
    q.set_defaults(fn=cmd_classnumber)

    q = sub.add_parser("cesaro", help="averaged limit of a twisted series")
    q.add_argument("--modulus", type=int, required=True)
    q.add_argument("--char", type=int, default=0)
    q.add_argument("--weight", choices=("const", "linear"), default="const")
    q.add_argument("--depth", type=int, default=1)
    q.add_argument("--terms", type=int, default=100_000)
    q.add_argument("--tol", default="1e-3")
    q.add_argument("--exact", action="store_true")
    q.set_defaults(fn=cmd_cesaro)

    q = sub.add_parser("dirichlet-avg", help="averaged partial sums of L(s, chi)")
    # argparse takes "-1/2" for an option unless it looks like a negative
    # number; widen that test to negative rationals so "--s -1/2" parses
    q._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    q.add_argument("--modulus", type=int, required=True)
    q.add_argument("--char", type=int, default=0)
    q.add_argument("--s", required=True)
    q.add_argument("--terms", type=int, default=100_000)
    q.add_argument("--precision", type=int, default=53)
    q.set_defaults(fn=cmd_dirichlet_avg)

    q = sub.add_parser("fock", help="oscillator-algebra verifications")
    fsub = q.add_subparsers(dest="fock_command", required=True)
    fv = fsub.add_parser("verify", help="bracket and energy identities")
    fv.add_argument("--modulus", type=int, required=True)
    fv.add_argument("--cutoff", type=int, default=30,
                    help="top Fock degree of the windows on which columns are checked")
    fv.add_argument("--theorem", choices=FOCK_CHECK_IDS, default=None,
                    help="one identity id from the catalog; default all")
    fv.add_argument("--json", action="store_true")
    fv.set_defaults(fn=cmd_fock_verify)
    fq = fsub.add_parser("qtrace", help="graded traces on component vacua")
    fq.add_argument("--modulus", type=int, required=True)
    fq.add_argument("--index", type=int, required=True)
    fq.add_argument("--mode", choices=("char", "kernel"), required=True)
    fq.add_argument("--order", type=int, default=30)
    fq.set_defaults(fn=cmd_fock_qtrace)

    q = sub.add_parser("qseries", help="series identity verifications")
    qsub = q.add_subparsers(dest="qseries_command", required=True)
    qv = qsub.add_parser("verify")
    qv.add_argument("--identity", choices=QSERIES_IDS, required=True)
    qv.add_argument("--k", type=int, default=2)
    qv.add_argument("--j", type=int, default=1)
    qv.add_argument("--order", type=int, default=50)
    qv.add_argument("--z-range", type=int, default=6)
    qv.set_defaults(fn=cmd_qseries_verify)
    qm = qsub.add_parser("modular")
    qm.add_argument("--k", type=int, default=2)
    qm.add_argument("--order", type=int, default=400)
    qm.add_argument("--precision", type=int, default=256)
    qm.set_defaults(fn=cmd_qseries_modular)

    q = sub.add_parser("cocycle", help="central-term null-space check")
    csub = q.add_subparsers(dest="cocycle_command", required=True)
    cv = csub.add_parser("verify")
    cv.add_argument("--field", choices=("Q", "Q(sqrt2)", "Q(sqrt5)", "Q(i)"),
                    default="Q")
    cv.add_argument("--height", type=int, default=4)
    cv.set_defaults(fn=cmd_cocycle)

    q = sub.add_parser("report", help="run the whole suite, emit a document")
    q.add_argument("--config", help="flat key=value configuration file")
    q.add_argument("--format", choices=("json", "csv", "text"), default=None)
    q.add_argument("--out", help="write the document here instead of stdout")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--cutoff", type=int, default=None)
    q.add_argument("--n-terms", dest="n_terms", type=int, default=None)
    q.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
    q.add_argument("--timings", action="store_true",
                   help="include per-check runtimes (breaks byte-identity)")
    q.set_defaults(fn=cmd_report)
    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
