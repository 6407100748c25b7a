"""Command line front end.

Subcommands take one input argument: inline JSON (anything starting with
"{" or "["), "-" for stdin, or a path to a JSON file.  Output is JSON by
default (--output text for a line-oriented rendering).  Exit codes:
0 success, 1 malformed input (a key the subcommand does not read
included), 2 domain error; errors are emitted as {"error": {...}} JSON.
Rationals render as "p/q" strings and integers beyond 2^53 as decimal
strings so consumers never round.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

# each handler imports the layers it calls, so a one-shot command loads
# only those; errors and rationals serve every subcommand
from .errors import InvalidParameter, SchemaError, WresolveError, paused_gc
from .rationals import format_rat, parse_int, parse_rat

MAX_SAFE_INT = 2**53

# the most stages an o3 request may walk (kMax if given, else a; a kMax
# above a is the walk's own range error, not this ceiling's): the
# largest accepted requests (a = 9999, six or seven support rows) answered
# in 0.39-0.53 s in a fresh process on a 2-vCPU host, and 30,001 stages in
# 1.0-1.6 s
O3_MAX_STAGES = 10_000
# the most stages (as above) times support rows (suppA plus suppB) an o3
# request may walk: on a 2-vCPU shared host, a = 9999 with eight rows
# (79,992) answered in 0.53-0.93 s in a fresh process, and with 30 rows in
# 1.2-1.6 s
O3_MAX_STAGE_ROWS = 80_000

# the most stages a resolve walk may take (t for an index r >= 2), so a t
# of 300 digits, which ran on without end, is refused before the walk; a
# walk within it still overflows the encoder's recursion limit from about
# 985 stages in a fresh process (t = 10^4 walks every stage, then exits 2
# with RecursionError in 0.1-0.2 s) until ROADMAP item 2's writer lifts it
RESOLVE_MAX_STAGES = 10_000

# the verify flags: one --flag-name per run_all parameter, in its order (a
# test checks this against the signature); their defaults are run_all's
_VERIFY_FLAGS = (
    "cyclic_max", "germ_r_max", "rr_max", "en_r_max", "semi_max", "iib_max",
    "o3_cases", "trace_count", "seed",
)


def _encode(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < MAX_SAFE_INT else str(value)
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, str):
        return value
    # map costs one stack frame per nesting level (a comprehension costs
    # two), so deep resolve trees stay inside the recursion limit
    if isinstance(value, dict):
        return dict(zip(map(str, value), map(_encode, value.values())))
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    # a record (a named tuple): an object over its field table; iterating
    # it yields the fields in that order, and records hold only wire fields
    names = getattr(value, "_fields", None)
    if names is not None:
        return dict(zip(names, map(_encode, value)))
    if isinstance(value, (list, tuple)):
        return list(map(_encode, value))
    raise TypeError(f"cannot encode {type(value).__name__}")


def _object(pairs):
    """A JSON object as a dict; a key repeated in it is refused (json.loads
    alone would keep the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def _load_input(arg: str):
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith(("{", "[")):
        text = arg
    else:
        path = Path(arg)
        try:
            text = path.read_bytes() if path.is_file() else None
        except OSError as exc:  # a name the OS refuses, or an unreadable file
            raise SchemaError(f"cannot read input file: {exc.strerror or exc}") from exc
        if text is None:
            raise SchemaError(f"no such input file: {arg}")
    try:
        obj = json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # bad syntax or encoding, or an int too long
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("top-level input must be a JSON object")
    return obj


_REQUIRED = object()


def _convert(convert, value, name, expected):
    try:
        return convert(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{name} must be {expected}") from exc


def _int(value, name, minimum=None):
    """An integer, or a decimal string of one; never a bool or a float."""
    value = _convert(parse_int, value, name, "an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{name} must be >= {minimum}")
    return value


def _rat(value, name):
    return _convert(parse_rat, value, name, "a rational")


def _rows(value, sizes, message):
    """value as a list of lists whose lengths are in sizes."""
    if not isinstance(value, list) or any(
        not isinstance(row, list) or len(row) not in sizes for row in value
    ):
        raise SchemaError(message)
    return value


def _int_rows(value, sizes, message):
    """value as a list of integer tuples whose lengths are in sizes; a
    bool is never an integer."""
    rows = _rows(value, sizes, message)
    if any(type(x) is not int for row in rows for x in row):
        raise SchemaError(message)
    return [tuple(row) for row in rows]


def _pairs(value, name):
    return _int_rows(value, (2,), f"{name} must be a list of [i, j] pairs")


def _basket(value, name):
    from .baskets import Basket

    message = f"{name} must be a list of [b, r] or [b, r, n]"
    return Basket(_int_rows(value, (2, 3), message))


def _name(table, unknown, fold=str.lower):
    """A parser for a name that fold maps to a key of table; any other
    value is refused with unknown.format(value)."""

    def parse(value, name):
        found = isinstance(value, str) and table.get(fold(value))
        if not found:
            raise SchemaError(unknown.format(value))
        return found

    return parse


def _field(obj, key, parse=_int, default=_REQUIRED, **bounds):
    """The value under key through parse, popped so that what stays in obj
    was never read; a missing key is an error unless there is a default."""
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"missing key {key!r}")
        return default
    return parse(obj.pop(key), f"key {key!r}", **bounds)


def _read_all(read, obj):
    """read(obj), then refuse the first key of obj that read left unread."""
    out = read(obj)
    for key in obj:
        raise SchemaError(f"unknown key {key!r}")
    return out


def _parse_germ(obj):
    from .germs import CARGerm

    r, beta = _field(obj, "r"), _field(obj, "beta")
    return CARGerm(r, beta, frozenset(_field(obj, "support", _pairs)))


def _weights(value, name):
    message = "cyclic class needs 'weights': [w1, w2, w3]"
    return _int_rows([value], (3,), message)[0]


def _parse_class(obj):
    from .baskets import _KINDS, GORENSTEIN, CyclicQuotient, TerminalClass

    # every class name, lower-cased, with and without its "/"
    aliases = {
        alias: kind
        for kind in _KINDS
        for alias in (kind.lower(), kind.lower().replace("/", ""))
    } | {"smooth": GORENSTEIN}
    kind = _field(obj, "class", _name(aliases, "unknown class {!r}"))
    datum, required, *_ = _KINDS[kind]
    if datum is None:
        return TerminalClass(kind)
    # one reader per datum the class table names
    read = {
        "k": lambda: _field(obj, "k", default=_REQUIRED if required else None),
        "quotient": lambda: CyclicQuotient(
            _field(obj, "r"), _field(obj, "weights", _weights)),
        "germ": lambda: _parse_germ(obj),
    }
    return TerminalClass(kind, **{datum: read[datum]()})


def _cmd_basket(obj):
    from . import baskets

    tc = _parse_class(obj)
    basket = baskets.basket_of(tc)
    return {
        "class": tc.kind,
        "entries": [[e.b, e.r, e.n] for e in basket.entries],
        "aw": baskets.aw(basket),
        "sigma": baskets.sigma(basket),
        "xi": baskets.xi(basket),
    }


def _cmd_depth(obj):
    from . import germs

    if "class" in obj:
        return germs.depth_bound(_parse_class(obj))
    return {"dep": germs.depth_formula(_parse_germ(obj)), "exact": True}


def _cmd_resolve(obj):
    from . import germs

    g, limit = _parse_germ(obj), _field(obj, "limit", default=None, minimum=0)
    # a walk from index r >= 2 takes t stages; index 1 takes none
    if g.r > 1 and (t := germs.tvalue(g)) > RESOLVE_MAX_STAGES:
        raise InvalidParameter(
            f"resolve walks at most {RESOLVE_MAX_STAGES} stages, not t = {t}")
    tree = germs.resolution_tree(g, limit)
    return {"dep": tree["dep"], "tree": tree}


def _cmd_blowup(obj):
    from . import baskets, germs

    g = _parse_germ(obj)
    step = germs.blowup_step(g, _field(obj, "r1"), _field(obj, "r2"))
    quotients = []
    for q in step.cyclic_points:
        entry = {"index": q.r, "weights": list(q.weights)}
        if q.r >= 2:
            entry["normal"] = list(baskets.normalize_cyclic(q))
        quotients.append(entry)
    return {"quotients": quotients, "residual": step.residual}


def _points(value, name):
    from .neighborhoods import ENPoint

    rows = _rows(value, (2,), "'points' must be a list of [r, w0]")
    return [ENPoint(_int(r, "point index"), _rat(w0, "w_P(0)")) for r, w0 in rows]


def _cmd_en(obj):
    from . import neighborhoods

    if "points" in obj:
        return {"kx_c": neighborhoods.canonical_degree(_field(obj, "points", _points))}
    # case name with "+" and "_" dropped, lower-cased -> case class; the
    # JSON keys are the record's field names
    def fold(name):
        return name.replace("+", "").replace("_", "").lower()

    cases = {neighborhoods._case_name(c).lower(): c for c in neighborhoods.EN_CASES}
    cls = _field(obj, "case", _name(cases, "unknown neighborhood case {!r}", fold))
    kx = _field(obj, "kx", _rat, default=None)
    case = cls(*(_field(obj, name) for name in cls._fields))
    # after the case data, which holds the IIB weights r1..r4
    r1 = _field(obj, "r1", default=None)
    return neighborhoods.key_check(case, kx=kx, r1=r1)


def _cmd_rr(obj):
    from . import riemannroch
    from .baskets import Basket

    if "a_over_n" in obj:
        value = riemannroch.delta_chi(
            _field(obj, "a_over_n", _rat),
            _field(obj, "e3", _rat),
            _field(obj, "basket_y", _basket, default=Basket()),
            _field(obj, "basket_x", _basket, default=Basket()),
        )
        return {"delta_chi": value}
    if "basket" in obj:
        return {"correction": riemannroch.rr_correction(_field(obj, "basket", _basket))}
    tags = {t.lower(): t for t in riemannroch.TAGS}
    tag = _field(obj, "case", _name(tags, "unknown contraction case {!r}"))
    # ContractionCase takes an r' for exactly the E1/E2 families
    case = riemannroch.ContractionCase(tag, _field(obj, "rprime", default=None))
    out = {"case": tag}
    if case.rprime is not None:
        out["aw_bound"] = riemannroch.aw_upper_bound(case)
        out["sufficient_bound"] = riemannroch.case_data(case).sufficient_bound
    awx = _field(obj, "aw", default=None)
    # a case without an r' (E11, O3) is checked without an aw;
    # case_depth_check refuses an aw for E11, and O3 with or without one
    if awx is not None or case.rprime is None:
        out["check"] = riemannroch.case_depth_check(case, awx)
    return out


def _stage_payload_a(st):
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


def _stage_payload_b(st):
    return {
        "k": st.k,
        "weights": list(st.weights),
        "wt_first": st.wt_first,
        "wt_second": st.wt_second,
        "discrepancy": st.discrepancy,
        "first_exponents": [[i, j, e] for (i, j), e in st.p_exponents],
        "second_exponents": [[i, j, e] for (i, j), e in st.q_exponents],
    }


def _cmd_o3(obj):
    from . import chains

    shapes = {c.__name__.removeprefix("O3Case"): c for c in chains.O3_SHAPES}
    unknown = "key 'case' must be \"A\" or \"B\""
    shape = _field(obj, "case", _name(dict(zip(shapes, shapes)), unknown, str))
    a = _field(obj, "a")
    d = _field(obj, "d")
    supp_a = frozenset(_field(obj, "suppA", _pairs, default=()))
    supp_b = frozenset(_field(obj, "suppB", _pairs, default=()))
    k_max = _field(obj, "kMax", default=None, minimum=0)
    dep_q3 = _field(obj, "depQ3", default=0, minimum=0)
    # the record's fields between d and the supports (shape A's alpha) are
    # read last; each shape's stages have their own payload
    cls = shapes[shape]
    case = cls(a, d, *(_field(obj, name) for name in cls._fields[2:-2]), supp_a, supp_b)
    stages = a if k_max is None else min(k_max, a)
    if stages > O3_MAX_STAGES:
        raise InvalidParameter(
            f"o3 walks at most {O3_MAX_STAGES} stages, not {stages}: "
            f"give a kMax up to {O3_MAX_STAGES}")
    if (stage_rows := stages * (len(supp_a) + len(supp_b))) > O3_MAX_STAGE_ROWS:
        raise InvalidParameter(
            f"o3 walks at most {O3_MAX_STAGE_ROWS} stage-rows (stages times support "
            f"rows), not {stage_rows}: give a smaller kMax or fewer support rows")
    stage_payload = globals()["_stage_payload_" + shape.lower()]
    return {
        "case": shape,
        "r": case.r,
        "nonnegativity": chains.nonnegativity_check(case),
        "stages": [stage_payload(s) for s in case._walk(k_max)],
        "identity": chains.depth_identity(case, dep_q3),
    }


def _steps(value, name):
    """The trace steps, each an object read whole."""
    from .traces import KINDS, TraceStep

    if not isinstance(value, list):
        raise SchemaError("trace needs 'steps': a list of objects")
    kinds = _name(dict(zip(KINDS, KINDS)), "unknown step kind {!r}", str)

    def step(item):
        if not isinstance(item, dict):
            raise SchemaError("each step must be an object")
        kind = _field(item, "kind", kinds)
        before = _field(item, "before", minimum=0)
        return TraceStep(kind, before, _field(item, "after", minimum=0))

    return tuple(_read_all(step, item) for item in value)


def _cmd_trace(obj):
    from . import traces

    trace = traces.FactorizationTrace(_field(obj, "steps", _steps))
    # an invalid trace raises here, so the certificate needs only the
    # induction rule, not a second pass of the step rules
    verdict = traces.validate_trace(trace, raise_on_violation=True)
    return {
        "valid": verdict.valid,
        "induction": traces._inductive(trace.steps),
        "steps": verdict.diagnostics,
    }


def _cmd_verify(args):
    from . import sweeps

    # a flag left out is absent from args, so run_all's default applies
    given = {name: getattr(args, name) for name in _VERIFY_FLAGS if name in args}
    results = sweeps.run_all(**given)
    if args.output == "json":
        payload = [{**r._asdict(), "elapsed": round(r.elapsed, 3)} for r in results]
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.ok for r in results) else 2


def _emit(payload, mode):
    enc = _encode(payload)  # in full first, so a failure prints nothing
    if mode == "json":
        print(json.dumps(enc))
        return
    shown = (json.dumps(v) if isinstance(v, (dict, list)) else v for v in enc.values())
    print("\n".join(f"{key}: {value}" for key, value in zip(enc, shown)))


def _emit_error(exc: WresolveError):
    body = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("index", "rule", "i", "j", "k"):
        value = getattr(exc, attr, None)
        if value is not None:
            body[attr] = value
    _emit({"error": body}, "json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    leaves it as it was, and an in-process caller of ``main`` would
    otherwise pay for the nine subparsers on every request.  It holds no
    handler; ``_run`` finds ``_cmd_<command>`` when the request comes."""
    parser = argparse.ArgumentParser(
        prog="wresolve",
        description="Exact depth calculus for terminal threefold singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="inline JSON, a file path, or - for stdin")
        p.add_argument(
            "--output", "-o", choices=("json", "text"), default="json",
            help="output rendering (default json)",
        )

    add("basket", "basket and aw/sigma/Xi of a terminal class")
    add("depth", "depth of a germ, or depth bounds of a class")
    add("resolve", "depth search with resolution tree")
    add("blowup", "apply one admissible weighted blow-up")
    add("en", "extremal-neighborhood intersection numbers")
    add("rr", "chi corrections, thresholds, case depth checks")
    add("o3", "alternating blow-up chain bookkeeping")
    add("trace", "validate a factorization trace")

    v = sub.add_parser("verify", help="run the cross-check sweeps")
    v.add_argument("--output", "-o", choices=("json", "text"), default="text")
    for name in _VERIFY_FLAGS:
        flag = "--" + name.replace("_", "-")
        v.add_argument(flag, type=int, default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try
    except BrokenPipeError:
        # nobody reads the output; send the exit-time flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        _answer(args)
        return 0
    except WresolveError as exc:
        _emit_error(exc)
        return 1 if isinstance(exc, SchemaError) else 2
    except (RecursionError, MemoryError) as exc:
        # the input is too deep or too large for this interpreter
        _emit_error(InvalidParameter(f"input too large ({type(exc).__name__})"))
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


@paused_gc
def _answer(args) -> None:
    """Load the input, read all of it with the subcommand's handler and
    print the answer.  A request builds its input, records and output
    once and frees them by reference counting, so it runs with the cyclic
    collector paused (a cycle an error path leaves waits for the next
    collection); ``verify``, whose sweeps run for seconds, does not.

    The input is parsed under the interpreter's int-string digit limit,
    so an int literal past it is a SchemaError.  The handler, the answer
    and an error's report then run without the limit, which ``_run``
    restores: every input int has at most that many digits (``parse_int``
    and ``parse_rat`` hold decimal strings to it too), and no handler
    raises an input to an input-given power, so a longer int in an answer
    or a message costs no more than the arithmetic that made it."""
    handler = globals()["_cmd_" + args.command]
    obj = _load_input(args.input)
    sys.set_int_max_str_digits(0)
    _emit(_read_all(handler, obj), args.output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
