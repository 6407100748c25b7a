"""Command line front end.

Subcommands take one input argument: inline JSON (anything starting with
"{" or "["), "-" for stdin, or a path to a JSON file.  Output is JSON by
default (--output text for a line-oriented rendering).  Exit codes:
0 success, 1 malformed input, 2 domain error; errors are emitted as
{"error": {...}} JSON.  Rationals render as "p/q" strings and integers
beyond 2^53 as decimal strings so consumers never round.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path

from . import chains, germs, neighborhoods, riemannroch, sweeps, traces
from .baskets import (
    CA_R,
    CAX2,
    CAX4,
    CD2,
    CD3,
    CE2,
    CYCLIC,
    GORENSTEIN,
    Basket,
    CyclicQuotient,
    TerminalClass,
    aw,
    basket_of,
    normalize_cyclic,
    sigma,
    xi,
)
from .errors import InvalidParameter, SchemaError, WresolveError
from .germs import CARGerm
from .rationals import format_rat, parse_rat

MAX_SAFE_INT = 2**53

# the verify flags and their defaults: one --flag-name per run_all parameter
_VERIFY_PARAMS = inspect.signature(sweeps.run_all).parameters


def _encode(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < MAX_SAFE_INT else str(value)
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, str):
        return value
    if is_dataclass(value):
        return _encode(asdict(value))
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_encode(v) for v in items]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _load_input(arg: str):
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith(("{", "[")):
        text = arg
    else:
        path = Path(arg)
        if not path.is_file():
            raise SchemaError(f"no such input file: {arg}")
        text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top-level input must be a JSON object")
    return obj


def _int_field(obj, key, required=True, default=None):
    if key not in obj:
        if required:
            raise SchemaError(f"missing key {key!r}")
        return default
    v = obj[key]
    if isinstance(v, bool):
        raise SchemaError(f"key {key!r} must be an integer")
    if isinstance(v, str):
        try:
            v = int(v)
        except ValueError as exc:
            raise SchemaError(f"key {key!r} must be an integer") from exc
    if not isinstance(v, int):
        raise SchemaError(f"key {key!r} must be an integer")
    return v


def _rat_field(obj, key, required=True, default=None):
    if key not in obj:
        if required:
            raise SchemaError(f"missing key {key!r}")
        return default
    try:
        return parse_rat(obj[key])
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"key {key!r} must be a rational") from exc


def _pairs_field(obj, key, required=True):
    if key not in obj:
        if required:
            raise SchemaError(f"missing key {key!r}")
        return []
    v = obj[key]
    if not isinstance(v, list):
        raise SchemaError(f"key {key!r} must be a list of [i, j] pairs")
    pairs = []
    for item in v:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in item)
        ):
            raise SchemaError(f"key {key!r} must be a list of [i, j] pairs")
        pairs.append((item[0], item[1]))
    return pairs


def _parse_germ(obj) -> CARGerm:
    r = _int_field(obj, "r")
    beta = _int_field(obj, "beta")
    support = _pairs_field(obj, "support")
    try:
        return CARGerm(r, beta, frozenset(support))
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc


def _parse_basket(items) -> Basket:
    if not isinstance(items, list):
        raise SchemaError("basket must be a list of [b, r] or [b, r, n]")
    entries = []
    for item in items:
        if (
            not isinstance(item, (list, tuple))
            or len(item) not in (2, 3)
            or any(isinstance(x, bool) or not isinstance(x, int) for x in item)
        ):
            raise SchemaError("basket must be a list of [b, r] or [b, r, n]")
        entries.append(tuple(item))
    try:
        return Basket.of(*entries)
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc


_CLASS_ALIASES = {
    "gorenstein": GORENSTEIN,
    "smooth": GORENSTEIN,
    "cyclic": CYCLIC,
    "ca/r": CA_R,
    "car": CA_R,
    "cax/2": CAX2,
    "cax2": CAX2,
    "cax/4": CAX4,
    "cax4": CAX4,
    "cd/2": CD2,
    "cd2": CD2,
    "cd/3": CD3,
    "cd3": CD3,
    "ce/2": CE2,
    "ce2": CE2,
}


def _parse_class(obj) -> TerminalClass:
    name = obj.get("class")
    if not isinstance(name, str):
        raise SchemaError("missing class name under key 'class'")
    kind = _CLASS_ALIASES.get(name.lower())
    if kind is None:
        raise SchemaError(f"unknown class {name!r}")
    try:
        if kind == GORENSTEIN:
            return TerminalClass.gorenstein()
        if kind == CYCLIC:
            r = _int_field(obj, "r")
            w = obj.get("weights")
            if (
                not isinstance(w, list)
                or len(w) != 3
                or any(isinstance(x, bool) or not isinstance(x, int) for x in w)
            ):
                raise SchemaError("cyclic class needs 'weights': [w1, w2, w3]")
            return TerminalClass.cyclic(CyclicQuotient(r, tuple(w)))
        if kind == CA_R:
            return TerminalClass.ca_r(_parse_germ(obj))
        if kind == CAX2:
            return TerminalClass.cax2(_int_field(obj, "k", required=False))
        k = _int_field(obj, "k") if kind in (CAX4, CD2) else None
        if kind == CAX4:
            return TerminalClass.cax4(k)
        if kind == CD2:
            return TerminalClass.cd2(k)
        if kind == CD3:
            return TerminalClass.cd3()
        return TerminalClass.ce2()
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc


def _cmd_basket(args):
    obj = _load_input(args.input)
    tc = _parse_class(obj)
    basket = basket_of(tc)
    return 0, {
        "class": tc.kind,
        "entries": [[e.b, e.r, e.n] for e in basket.entries],
        "aw": aw(basket),
        "sigma": sigma(basket),
        "xi": xi(basket),
    }


def _cmd_depth(args):
    obj = _load_input(args.input)
    if "class" in obj:
        bound = germs.depth_bound(_parse_class(obj))
        return 0, {"lower": bound.lower, "upper": bound.upper, "exact": bound.exact}
    g = _parse_germ(obj)
    return 0, {"dep": germs.depth_formula(g), "exact": True}


def _search_limit(obj):
    limit = _int_field(obj, "limit", required=False)
    if limit is not None:
        return limit
    env = os.environ.get("DEPTH_SEARCH_LIMIT")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError as exc:
        raise SchemaError("DEPTH_SEARCH_LIMIT must be an integer") from exc


def _cmd_resolve(args):
    obj = _load_input(args.input)
    g = _parse_germ(obj)
    tree = germs.resolution_tree(g, _search_limit(obj))
    return 0, {"dep": tree["dep"], "tree": tree}


def _cmd_blowup(args):
    obj = _load_input(args.input)
    g = _parse_germ(obj)
    r1 = _int_field(obj, "r1")
    r2 = _int_field(obj, "r2")
    step = germs.blowup_step(g, r1, r2)
    quotients = []
    for q in step.cyclic_points:
        entry = {"index": q.r, "weights": list(q.weights)}
        if q.r >= 2:
            entry["normal"] = list(normalize_cyclic(q))
        quotients.append(entry)
    return 0, {"quotients": quotients, "residual": step.residual}


def _cmd_en(args):
    obj = _load_input(args.input)
    if "points" in obj:
        pts = []
        raw = obj["points"]
        if not isinstance(raw, list):
            raise SchemaError("'points' must be a list of [r, w0]")
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise SchemaError("'points' must be a list of [r, w0]")
            try:
                pts.append(neighborhoods.ENPoint(int(item[0]), parse_rat(item[1])))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(str(exc)) from exc
        return 0, {"kx_c": neighborhoods.canonical_degree(pts)}
    name = obj.get("case")
    if not isinstance(name, str):
        raise SchemaError("missing case name under key 'case'")
    kx = _rat_field(obj, "kx", required=False)
    r1 = _int_field(obj, "r1", required=False)
    key = name.replace("+", "").replace("_", "").lower()
    if key == "ic":
        case = neighborhoods.ICCase(_int_field(obj, "r"))
    elif key == "iib":
        case = neighborhoods.IIBCase(
            _int_field(obj, "r1"),
            _int_field(obj, "r2"),
            _int_field(obj, "r3"),
            _int_field(obj, "r4"),
        )
        r1 = None  # the IIB weights already sit in the case data
    elif key == "ia":
        case = neighborhoods.IACase(
            _int_field(obj, "r"), _int_field(obj, "a1"), _int_field(obj, "a2")
        )
    elif key == "exceptionaliaia":
        case = neighborhoods.ExceptionalIAIACase(
            _int_field(obj, "r"), _int_field(obj, "a2")
        )
    elif key == "semistableiaia":
        case = neighborhoods.SemistableIAIACase(
            _int_field(obj, "r"),
            _int_field(obj, "a"),
            _int_field(obj, "rprime"),
            _int_field(obj, "aprime"),
        )
    elif key == "iaiaiii":
        case = neighborhoods.IAIAIIICase(_int_field(obj, "r"), _int_field(obj, "a2"))
    else:
        raise SchemaError(f"unknown neighborhood case {name!r}")
    return 0, asdict(neighborhoods.key_check(case, kx=kx, r1=r1))


def _cmd_rr(args):
    obj = _load_input(args.input)
    if "a_over_n" in obj:
        value = riemannroch.delta_chi(
            _rat_field(obj, "a_over_n"),
            _rat_field(obj, "e3"),
            _parse_basket(obj.get("basket_y", [])),
            _parse_basket(obj.get("basket_x", [])),
        )
        return 0, {"delta_chi": value}
    if "basket" in obj:
        basket = _parse_basket(obj["basket"])
        return 0, {"correction": riemannroch.rr_correction(basket)}
    name = obj.get("case")
    if not isinstance(name, str):
        raise SchemaError("need 'case', 'basket', or 'a_over_n' input")
    tag = {t.lower(): t for t in riemannroch.TAGS}.get(name.lower())
    if tag is None:
        raise SchemaError(f"unknown contraction case {name!r}")
    rprime = _int_field(obj, "rprime", required=False)
    try:
        case = riemannroch.ContractionCase(tag, rprime)
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc
    out = {"case": tag}
    if tag in (riemannroch.E1_A4, riemannroch.E1_A2, riemannroch.E2):
        out["aw_bound"] = riemannroch.aw_upper_bound(case)
        out["sufficient_bound"] = riemannroch.case_data(case).sufficient_bound
    awx = _int_field(obj, "aw", required=False)
    if awx is not None or tag == riemannroch.E11:
        rep = riemannroch.case_depth_check(case, awx)
        out["check"] = {
            "aw": rep.aw,
            "dep_y": [rep.dep_y_min, rep.dep_y_max],
            "dep_x_upper": rep.dep_x_upper,
            "ok": rep.ok,
        }
    return 0, out


def _stage_payload_a(st: chains.ChainStage):
    return {
        "k": st.k,
        "weights": list(st.weights),
        "sigma_weight": st.sigma_weight,
        "discrepancy": st.discrepancy,
        "witnesses": list(st.witnesses),
        "a_exponents": [[i, j, e] for (i, j), e in st.a_exponents],
        "b_exponents": [[i, j, e] for (i, j), e in st.b_exponents],
        "y_exponent": st.y_exponent,
    }


def _stage_payload_b(st: chains.ChainStageB):
    return {
        "k": st.k,
        "weights": list(st.weights),
        "wt_first": st.wt_first,
        "wt_second": st.wt_second,
        "discrepancy": st.discrepancy,
        "first_exponents": [[i, j, e] for (i, j), e in st.p_exponents],
        "second_exponents": [[i, j, e] for (i, j), e in st.q_exponents],
    }


def _cmd_o3(args):
    obj = _load_input(args.input)
    shape = obj.get("case")
    if shape not in ("A", "B"):
        raise SchemaError("key 'case' must be \"A\" or \"B\"")
    a = _int_field(obj, "a")
    d = _int_field(obj, "d")
    supp_a = frozenset(_pairs_field(obj, "suppA", required=False))
    supp_b = frozenset(_pairs_field(obj, "suppB", required=False))
    k_max = _int_field(obj, "kMax", required=False)
    dep_q3 = _int_field(obj, "depQ3", required=False, default=0)
    try:
        if shape == "A":
            case = chains.O3CaseA(
                a=a, d=d, alpha=_int_field(obj, "alpha"),
                supp_a=supp_a, supp_b=supp_b,
            )
        else:
            case = chains.O3CaseB(a=a, d=d, supp_a=supp_a, supp_b=supp_b)
    except ValueError as exc:
        raise InvalidParameter(str(exc)) from exc
    nn = chains.nonnegativity_check(case)
    if shape == "A":
        stages = [_stage_payload_a(s) for s in chains.chain_simulate(case, k_max)]
    else:
        stages = [_stage_payload_b(s) for s in chains.chain_stages_b(case, k_max)]
    ident = chains.depth_identity(case, dep_q3)
    return 0, {
        "case": shape,
        "r": case.r,
        "nonnegativity": {"checks": nn.checks, "ok": nn.ok},
        "stages": stages,
        "identity": {
            "dep_q3": ident.dep_q3,
            "dep_x_upper": ident.dep_x_upper,
            "dep_y": ident.dep_y,
            "check": ident.check,
        },
    }


def _cmd_trace(args):
    obj = _load_input(args.input)
    raw = obj.get("steps")
    if not isinstance(raw, list):
        raise SchemaError("trace needs 'steps': a list of objects")
    steps = []
    for item in raw:
        if not isinstance(item, dict):
            raise SchemaError("each step must be an object")
        kind = item.get("kind")
        if kind not in traces.KINDS:
            raise SchemaError(f"unknown step kind {kind!r}")
        before = _int_field(item, "before")
        after = _int_field(item, "after")
        if before < 0 or after < 0:
            raise SchemaError("step depths must be >= 0")
        steps.append(traces.TraceStep(kind, before, after))
    trace = traces.FactorizationTrace(tuple(steps))
    verdict = traces.validate_trace(trace, raise_on_violation=True)
    return 0, {
        "valid": verdict.valid,
        "induction": traces.induction_certificate(trace),
        "steps": verdict.diagnostics,
    }


def _cmd_verify(args):
    results = sweeps.run_all(**{name: getattr(args, name) for name in _VERIFY_PARAMS})
    if args.output == "json":
        payload = [{**asdict(r), "elapsed": round(r.elapsed, 3)} for r in results]
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.ok for r in results) else 2


def _emit(payload, mode):
    if mode == "json":
        print(json.dumps(_encode(payload)))
        return
    for key, value in payload.items():
        enc = _encode(value)
        if isinstance(enc, (dict, list)):
            print(f"{key}: {json.dumps(enc)}")
        else:
            print(f"{key}: {enc}")


def _emit_error(exc: WresolveError):
    body = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("index", "rule", "i", "j", "k", "stage", "monomial"):
        value = getattr(exc, attr, None)
        if value is not None:
            body[attr] = value
    print(json.dumps(_encode({"error": body})))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wresolve",
        description="Exact depth calculus for terminal threefold singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="inline JSON, a file path, or - for stdin")
        p.add_argument(
            "--output", "-o", choices=("json", "text"), default="json",
            help="output rendering (default json)",
        )
        p.set_defaults(handler=handler)
        return p

    add("basket", _cmd_basket, "basket and aw/sigma/Xi of a terminal class")
    add("depth", _cmd_depth, "depth of a germ, or depth bounds of a class")
    add("resolve", _cmd_resolve, "exhaustive depth search with resolution tree")
    add("blowup", _cmd_blowup, "apply one admissible weighted blow-up")
    add("en", _cmd_en, "extremal-neighborhood intersection numbers")
    add("rr", _cmd_rr, "chi corrections, thresholds, case depth checks")
    add("o3", _cmd_o3, "alternating blow-up chain bookkeeping")
    add("trace", _cmd_trace, "validate a factorization trace")

    v = sub.add_parser("verify", help="run the cross-check sweeps")
    v.add_argument("--output", "-o", choices=("json", "text"), default="text")
    for name, param in _VERIFY_PARAMS.items():
        v.add_argument("--" + name.replace("_", "-"), type=int, default=param.default)
    v.set_defaults(handler=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    try:
        code, payload = args.handler(args)
    except SchemaError as exc:
        _emit_error(exc)
        return 1
    except WresolveError as exc:
        _emit_error(exc)
        return 2
    _emit(payload, args.output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
