"""Command-line surface for the curvature engine.

Subcommands:
  catalog list            families, parameter domains, Lie algebra labels
  curvature               full curvature tensor of one configuration
  check-kl                Kahler-like verdict with residue witnesses
  check-flat              flatness verdict with a witness component
  classify                Kahler / balanced / pluriclosed flags
  verify appendix         closed-form component tables vs the pipeline
  verify theorems         the classification scoreboard and conjecture sweep
  verify structural       exact structural identities over the catalog
  flow run                invariant Ricci flow trace to CSV

Exit status: 0 on success, 1 when a verification reports FAIL, 2 on usage
errors (including out-of-domain parameters, which are reported with the
violated constraint named).  Scalar literals use the exact grammar of the
engine: 'i', '-1/2', '3/5+4/5*i'.  --version names the rational backend
(gmpy2 or the fractions fallback).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import (
    FamilyDomainError,
    FamilySpec,
    algebra_label,
    catalog_rows,
    instantiate,
    special_metric_loci,
)
from .connection import ConnectionSpec, curvature_of, curvature_to_json
from .metric import MetricParams, MetricValidationError, build_metric, classify_metric
from .scalars import BACKEND, rat_from_str
from .symmetry import flatness_check, kahler_like_check, report_to_json
from .tensors import index_name
from .verify import SamplePlan, appendix_suite, structural_sweep, theorem_suite
from .flow import flow_state_from_hermitian, integrate_flow, step_count, trace_to_csv

USAGE_ERROR = 2
VERIFY_FAIL = 1


class CliError(Exception):
    pass


def _parse_kv(text: str, what: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, sep, val = item.partition("=")
        key = key.strip()
        if not sep or not key or not val.strip():
            raise CliError(f"bad {what} entry {item!r}; expected key=value")
        if key in out:
            raise CliError(f"duplicate {what} key {key!r}")
        out[key] = val.strip()
    return out


_METRIC_KEYS = ("r2", "s2", "t2", "u", "v", "z")


def _metric_from_args(args) -> MetricParams:
    fields = _parse_kv(args.metric or "", "metric")
    unknown = set(fields) - set(_METRIC_KEYS)
    if unknown:
        raise CliError(f"unknown metric keys {sorted(unknown)}; expected {_METRIC_KEYS}")
    try:
        return MetricParams.make(**fields)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _family_from_args(args) -> FamilySpec:
    if not args.family:
        raise CliError("missing --family")
    params = _parse_kv(args.set or "", "structure parameter")
    try:
        return FamilySpec.make(args.family, **params)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _spec_from_args(args) -> ConnectionSpec:
    try:
        return ConnectionSpec.parse(args.spec or "chern")
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(args, text: str):
    text = text if text.endswith("\n") else text + "\n"
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:  # a usage error, as a missing input file is
        raise CliError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc


# -- subcommand handlers ---------------------------------------------------------

def cmd_catalog(args) -> int:
    rows = catalog_rows()
    if args.format == "json":
        _emit(args, json.dumps([{"id": r[0], "parameters": r[1], "algebras": r[2]}
                                for r in rows], indent=2))
    elif args.format == "csv":
        lines = ["id,parameters,algebras"]
        lines += [f"{r[0]},\"{r[1]}\",\"{r[2]}\"" for r in rows]
        _emit(args, "\n".join(lines))
    else:
        width = max(len(r[0]) for r in rows)
        lines = [f"{r[0]:<{width}}  params: {r[1]:<55}  algebras: {r[2]}" for r in rows]
        _emit(args, "\n".join(lines))
    return 0


def _setup_configuration(args):
    fam = _family_from_args(args)
    alg = instantiate(fam)
    metric = _metric_from_args(args)
    h = build_metric(metric)
    return fam, alg, metric, h


def cmd_curvature(args) -> int:
    fam, alg, metric, h = _setup_configuration(args)
    spec = _spec_from_args(args)
    curv = curvature_of(spec, h, alg)
    if args.format == "json":
        _emit(args, curvature_to_json(curv))
    elif args.format == "csv":
        lines = ["i,h,k,l,value"]
        for (i, hh, k, l), v in curv.tensor.nonzero():
            lines.append(f"{index_name(i)},{index_name(hh)},{index_name(k)},{index_name(l)},{v}")
        _emit(args, "\n".join(lines))
    else:
        lines = [f"family {fam.id} ({algebra_label(fam)}), connection {spec.label()}"]
        nz = list(curv.tensor.nonzero())
        if not nz:
            lines.append("R = 0 (flat)")
        for (i, hh, k, l), v in nz:
            lines.append(f"R[{index_name(i)},{index_name(hh)},{index_name(k)},{index_name(l)}] = {v}")
        _emit(args, "\n".join(lines))
    return 0


def cmd_check_kl(args) -> int:
    fam, alg, metric, h = _setup_configuration(args)
    spec = _spec_from_args(args)
    curv = curvature_of(spec, h, alg)
    report = kahler_like_check(curv, witness_cap=args.witness_cap)
    if args.format == "json":
        _emit(args, report_to_json(report))
    else:
        lines = [f"family {fam.id}, connection {spec.label()}: "
                 f"kahler-like = {str(report.verdict).lower()}"]
        for idx, v in report.type_residues:
            names = ",".join(index_name(i) for i in idx)
            lines.append(f"  type residue R[{names}] = {v}")
        for idx, v in report.bianchi_residues:
            names = ",".join(index_name(i) for i in idx)
            lines.append(f"  bianchi residue B[{names}] = {v}")
        if not report.verdict:
            lines.append(f"  nonzero residues: type={report.n_type_nonzero} "
                         f"bianchi={report.n_bianchi_nonzero}")
        _emit(args, "\n".join(lines))
    return 0


def cmd_check_flat(args) -> int:
    fam, alg, metric, h = _setup_configuration(args)
    spec = _spec_from_args(args)
    curv = curvature_of(spec, h, alg)
    res = flatness_check(curv)
    if args.format == "json":
        doc = {"flat": res.flat}
        if res.witness:
            idx, v = res.witness
            doc["witness"] = {"component": [index_name(i) for i in idx], "value": str(v)}
        _emit(args, json.dumps(doc))
    else:
        if res.flat:
            _emit(args, f"family {fam.id}, connection {spec.label()}: flat = true")
        else:
            idx, v = res.witness
            names = ",".join(index_name(i) for i in idx)
            _emit(args, f"family {fam.id}, connection {spec.label()}: flat = false "
                        f"(witness R[{names}] = {v})")
    return 0


def cmd_classify(args) -> int:
    fam, alg, metric, h = _setup_configuration(args)
    flags = classify_metric(h, alg)
    loci = special_metric_loci(fam)
    if args.format == "json":
        doc = dict(flags.as_dict())
        doc["loci"] = [{"kind": l.kind, "description": l.description,
                        "on_locus": l.contains(metric)} for l in loci]
        _emit(args, json.dumps(doc, indent=2))
    else:
        lines = [f"family {fam.id} ({algebra_label(fam)}): "
                 f"kahler={str(flags.kahler).lower()} "
                 f"balanced={str(flags.balanced).lower()} "
                 f"pluriclosed={str(flags.pluriclosed).lower()}"]
        for l in loci:
            lines.append(f"  {l.kind} locus [{l.description}]: "
                         f"on_locus={str(l.contains(metric)).lower()}")
        _emit(args, "\n".join(lines))
    return 0


def cmd_verify_appendix(args) -> int:
    rows = appendix_suite(SamplePlan(seed=args.seed, points_per_case=args.points), args.draws)
    failures = sum(not ok for *_, ok in rows)
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "comparisons": len(rows),
            "failures": failures,
            "rows": [{"table": n, "eps": str(e), "component": l,
                      "expected": str(x), "got": str(g), "match": ok}
                     for n, e, l, x, g, ok in rows] if args.full else [],
        }
        _emit(args, json.dumps(doc, indent=2))
    elif args.format == "csv":
        lines = ["table,eps,component,expected,got,match"]
        lines += [f"{n},{e},{l},{x},{g},{ok}" for n, e, l, x, g, ok in rows]
        _emit(args, "\n".join(lines))
    else:
        lines = []
        if args.full:
            for n, e, l, x, g, ok in rows:
                mark = "ok  " if ok else "FAIL"
                lines.append(f"{mark} {n} eps={e} {l}: expected {x}, got {g}")
        lines.append(f"appendix oracle: {len(rows)} comparisons, {failures} mismatches "
                     f"-> {'PASS' if failures == 0 else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return 0 if failures == 0 else VERIFY_FAIL


def cmd_verify_theorems(args) -> int:
    plan = SamplePlan(seed=args.seed, points_per_case=args.points)
    board = theorem_suite(plan)
    if args.format == "json":
        _emit(args, board.to_json())
    elif args.format == "csv":
        _emit(args, board.to_csv())
    else:
        lines = []
        for c in board.cases:
            mark = "ok  " if c.passed else "FAIL"
            witness = f"  witness {c.witness}" if c.witness else ""
            lines.append(f"{mark} {c.case_id} [{c.spec}] expected {c.expected}; "
                         f"observed {c.observed}{witness}")
        for cj in board.conjectures:
            mark = "ok  " if cj.passed else "FAIL"
            lines.append(f"{mark} {cj.conj_id}: {cj.statement} "
                         f"(checked {cj.checked}, violations {list(cj.violations)})")
        lines.append(f"scoreboard: {'PASS' if board.passed else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return 0 if board.passed else VERIFY_FAIL


def cmd_verify_structural(args) -> int:
    plan = SamplePlan(seed=args.seed)
    results = structural_sweep(plan)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        doc = {"seed": args.seed, "checks": len(results),
               "failures": [r.describe() for r in failures]}
        _emit(args, json.dumps(doc, indent=2))
    else:
        lines = [r.describe() for r in (results if args.full else failures)]
        lines.append(f"structural sweep: {len(results)} checks, {len(failures)} failures "
                     f"-> {'PASS' if not failures else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return 0 if not failures else VERIFY_FAIL


def cmd_flow_run(args) -> int:
    fam, alg, metric, h = _setup_configuration(args)
    try:
        horizon, step = float(rat_from_str(args.horizon)), float(rat_from_str(args.step))
        step_count(horizon, step)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    trace = integrate_flow(flow_state_from_hermitian(h, alg), horizon=horizon, step=step)
    _emit(args, trace_to_csv(trace))
    if args.out:
        last = trace.samples[-1]
        summary = (f"flow on {fam.id}: {len(trace.samples)} samples to t={last.t:.6g}, "
                   f"final deviation {last.deviation:.3e}, "
                   f"final |Ric| {last.ricci_norm:.3e}")
        if trace.halt_reason:
            summary += f" (halted: {trace.halt_reason})"
        print(summary)
        print(f"trace written to {args.out}")
    return 0 if trace.completed else VERIFY_FAIL


# -- argument plumbing ------------------------------------------------------------

def _add_config_args(p):
    p.add_argument("--family", help="catalog family id (see 'catalog list')")
    p.add_argument("--set", help="structure parameters, e.g. rho=1,lambda=0,D=i")
    p.add_argument("--metric", help="metric parameters, e.g. r2=1,s2=1,t2=1,u=1/2")


_ALL_FORMATS = ("text", "json", "csv")
_NO_CSV = ("text", "json")


def _add_common(p, formats):
    """--format with the formats the subcommand writes, and --out."""
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _add_spec(p):
    p.add_argument("--spec", default="chern",
                   help="connection: a preset (lc, chern, bismut, anti-bismut, first-canonical, "
                        "minimal-gauduchon), eps=a/b,rho=c/d, or eps=a/b alone for the "
                        "Gauduchon connection (rho = 1/2 - eps)")


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parsers = []

    def with_defaults(p):
        # defaults are applied after every argument is registered, because
        # set_defaults only overrides actions that already exist
        parsers.append(p)
        return p

    ap = with_defaults(argparse.ArgumentParser(
        prog="curvlab",
        description="Exact curvature of the Gauduchon connection family on "
                    "six-dimensional Lie algebras with invariant complex structures."))
    ap.add_argument("--version", action="version", version=f"curvlab {__version__} ({BACKEND})")
    ap.add_argument("--config", help="flat key=value file providing flag defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = with_defaults(sub.add_parser("catalog", help="catalog queries"))
    csub = p.add_subparsers(dest="subcommand", required=True)
    pl = with_defaults(csub.add_parser("list", help="list families, domains, and algebra labels"))
    _add_common(pl, _ALL_FORMATS)
    pl.set_defaults(handler=cmd_catalog)

    p = with_defaults(sub.add_parser("curvature", help="dump the full curvature tensor"))
    _add_config_args(p)
    _add_spec(p)
    _add_common(p, _ALL_FORMATS)
    p.set_defaults(handler=cmd_curvature)

    p = with_defaults(sub.add_parser("check-kl", help="Kahler-like verdict with witnesses"))
    _add_config_args(p)
    _add_spec(p)
    p.add_argument("--witness-cap", type=int, default=8,
                   help="list at most this many type and this many Bianchi residues; "
                        "the verdict and the nonzero counts cover every entry")
    _add_common(p, _NO_CSV)
    p.set_defaults(handler=cmd_check_kl)

    p = with_defaults(sub.add_parser("check-flat", help="flatness verdict"))
    _add_config_args(p)
    _add_spec(p)
    _add_common(p, _NO_CSV)
    p.set_defaults(handler=cmd_check_flat)

    p = with_defaults(sub.add_parser("classify", help="Kahler / balanced / pluriclosed flags"))
    _add_config_args(p)
    _add_common(p, _NO_CSV)
    p.set_defaults(handler=cmd_classify)

    p = with_defaults(sub.add_parser("verify", help="verification suites"))
    vsub = p.add_subparsers(dest="subcommand", required=True)

    pa = with_defaults(vsub.add_parser("appendix", help="closed-form tables vs the pipeline"))
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--points", type=int, default=5, help="metric points per table draw")
    pa.add_argument("--draws", type=int, default=3,
                    help="Ni structure draws, and Si-B0 structures up to 4; "
                         "Si-g20 always uses one structure")
    pa.add_argument("--full", action="store_true", help="print every comparison")
    _add_common(pa, _ALL_FORMATS)
    pa.set_defaults(handler=cmd_verify_appendix)

    pt = with_defaults(vsub.add_parser("theorems", help="classification scoreboard"))
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--points", type=int, default=5, help="points per case")
    _add_common(pt, _ALL_FORMATS)
    pt.set_defaults(handler=cmd_verify_theorems)

    ps = with_defaults(vsub.add_parser("structural", help="exact structural identity sweep"))
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--full", action="store_true", help="print every check")
    _add_common(ps, _NO_CSV)
    ps.set_defaults(handler=cmd_verify_structural)

    p = with_defaults(sub.add_parser("flow", help="invariant Ricci flow"))
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pf = with_defaults(fsub.add_parser("run", help="integrate the flow and write a CSV trace"))
    _add_config_args(pf)
    pf.add_argument("--horizon", default="1")
    pf.add_argument("--step", default="1/100")
    pf.add_argument("--out", help="CSV output path (default: stdout)")
    pf.set_defaults(handler=cmd_flow_run)

    if config_defaults:
        all_dests = set()
        for parser in parsers:
            known = {a.dest for a in parser._actions}
            all_dests |= known
            parser.set_defaults(**{k: v for k, v in config_defaults.items() if k in known})
            for action in parser._actions:
                value = config_defaults.get(action.dest)
                if action.choices is not None and value is not None \
                        and value not in action.choices:
                    # reported by main only when this parser's command runs, since
                    # one value (format=csv) suits some commands and not others
                    parser.set_defaults(config_error=(
                        f"config key {action.dest!r}: invalid choice {value!r} "
                        f"(choose from {', '.join(map(repr, action.choices))})"))
        unknown = set(config_defaults) - all_dests
        if unknown:
            raise CliError(f"unknown config keys {sorted(unknown)}")
    return ap


def _load_config_defaults(argv):
    # --config FILE provides defaults in flat key=value form, e.g. "format=json";
    # a pre-parser finds it in every spelling argparse accepts (--config=FILE, --conf FILE)
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        raise CliError("--config needs a file path") from None
    if path is None:
        return None
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    defaults = {}
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CliError(f"bad config line {line!r}; expected key=value")
        key = key.strip().replace("-", "_")
        if key in defaults:
            raise CliError(f"repeated config key {key!r}")
        defaults[key] = val.strip()
    for key in ("seed", "points", "draws", "witness_cap"):
        if key in defaults:
            try:
                defaults[key] = int(defaults[key])
            except ValueError:
                raise CliError(f"config key {key!r} needs an integer, "
                               f"got {defaults[key]!r}") from None
    if "full" in defaults:  # the one store_true flag
        if defaults["full"] not in ("true", "false"):
            raise CliError(f"config key 'full' needs true or false, got {defaults['full']!r}")
        defaults["full"] = defaults["full"] == "true"
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ap = build_parser(_load_config_defaults(argv))
        args = ap.parse_args(argv)
        if getattr(args, "config_error", None):
            raise CliError(args.config_error)
        for flag, least in (("points", 1), ("draws", 1), ("witness_cap", 0)):
            if getattr(args, flag, least) < least:
                raise CliError(f"--{flag.replace('_', '-')} must be at least {least}, "
                               f"got {getattr(args, flag)}")
        return args.handler(args)
    except (CliError, FamilyDomainError, MetricValidationError) as exc:
        # only usage and domain errors; an internal ValueError propagates
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
