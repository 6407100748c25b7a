"""A seeded fuzz sweep of the command line, run in process through
``cli.main``: the wire-corpus and golden requests, each once as it is and
once mutated (a value swapped for one of another type, a key removed or
repeated, an int made negative, 100 or 4000 digits long, or longer than
the 4300 digits an int literal may have), and one request just past each
row of ``cli.CEILINGS``.

Every run must exit 0, 1 or 2, print exactly one JSON document, write
nothing to stderr and finish within RUN_SECONDS.
"""

import contextlib
import io
import json
import random
import time

import pytest

from wresolve import cli

from test_wire import GOLDEN
from test_wire_corpus import corpus

SEED = 20261022
RUN_SECONDS = 1.0
# no corpus or golden request comes within this share of a ceiling
NEAR = 0.01
SWAPS = [True, False, None, 1.5, -3, 0, "x", "1/2", "-7", "", [], {}, [[1]], [1, 2]]
LONG = "9" * 4301
BIG = [10**100 + 7, 7 * 10**3999 + 1]


class Literal(str):
    """A value written into the JSON text as it is (an int literal that
    json.dumps would refuse to render)."""


class Repeated(dict):
    """An object whose first key is written twice."""


def _text(value):
    """value as JSON text, honouring Literal and Repeated."""
    if isinstance(value, Literal):
        return str(value)
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}:{_text(v)}" for k, v in value.items()]
        if isinstance(value, Repeated) and items:
            items.append(items[0].split(":", 1)[0] + ":0")
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_text, value)) + "]"
    return json.dumps(value)


def _slots(value):
    """(container, key) for every value nested in value, value excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        yield value, key
        if isinstance(item, (dict, list)):
            yield from _slots(item)


def _mutate(rng, obj):
    """A deep copy of obj with one mutation."""
    obj = json.loads(json.dumps(obj))
    slots = list(_slots(obj))
    dicts = [obj] + [c[k] for c, k in slots if isinstance(c[k], dict) and c[k]]
    ints = [(c, k) for c, k in slots if type(c[k]) is int]
    kind = rng.choice(["swap", "drop", "repeat", "negate", "big", "long"])
    if kind == "swap" and slots:
        container, key = rng.choice(slots)
        container[key] = rng.choice(SWAPS)
    elif kind == "drop" and obj:
        target = rng.choice(dicts)
        del target[rng.choice(sorted(target))]
    elif kind == "repeat":
        target = rng.choice(dicts)
        repeated = Repeated(target)
        if target is obj:
            return repeated
        for container, key in slots:
            if container[key] is target:
                container[key] = repeated
    elif kind == "negate" and ints:
        container, key = rng.choice(ints)
        container[key] = -abs(container[key]) - rng.randint(0, 2)
    elif kind == "big" and ints:
        container, key = rng.choice(ints)
        container[key] = Literal(rng.choice(BIG))
    elif slots:
        container, key = rng.choice(ints or slots)
        sign = rng.choice(["", "-"])
        container[key] = rng.choice([Literal(sign + LONG), sign + LONG])
    return obj


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    text = out.getvalue()
    assert code in (0, 1, 2), argv
    assert err.getvalue() == "", argv
    assert text.endswith("\n") and text.count("\n") == 1, argv
    assert seconds < RUN_SECONDS, (argv, seconds)
    return code, json.loads(text)


def _requests():
    """(subcommand, request object) of the wire corpus in json mode, then
    of the golden requests."""
    for sub, argv in corpus():
        if len(argv) == 2:
            yield sub, json.loads(argv[1])
    for cases in GOLDEN.values():
        for argv, _, _ in cases:
            yield argv[0], json.loads(argv[1])


def _support(rows):
    """rows distinct support rows of a germ of axial weight 50 with t = 50."""
    return [[0, 50], [1, 0]] + [[2 + x, x] for x in range(rows - 2)]


# per row of cli.CEILINGS: size -> (argv, the request's size), the size
# being the least past the given one that the request can have
PAST = {
    "resolve stages": lambda n: (
        ["resolve", {"r": 2, "beta": 1, "support": [[0, n], [1, 0]]}], n),
    "resolve stage-rows": lambda n: (
        ["resolve", {"r": 2, "beta": 1, "support": _support(-(-n // 50))}],
        50 * -(-n // 50)),
    "o3 stages": lambda n: (["o3", {"case": "B", "a": n, "d": 1}], n),
    "o3 stage-rows": lambda n: (
        ["o3", {"case": "B", "a": -(-n // 9), "d": 1,
                "suppA": [[3 + x, x] for x in range(5)],
                "suppB": [[1 + x, x] for x in range(4)]}], 9 * -(-n // 9)),
    "en points": lambda n: (["en", {"points": [[2, "1/2"]] * n}], n),
    "rr basket rows": lambda n: (["rr", {"basket": [[1, 2]] * n}], n),
    "trace steps": lambda n: (
        ["trace", {"steps": [{"kind": "Flop", "before": 1, "after": 1}] * n}], n),
}


def test_every_ceiling_has_a_past_request():
    assert PAST.keys() == cli.CEILINGS.keys()


@pytest.mark.parametrize("name", list(cli.CEILINGS))
def test_just_past_each_ceiling_is_refused(name):
    ceiling, refusal = cli.CEILINGS[name]
    (sub, obj), size = PAST[name](ceiling + 1)
    code, payload = _run([sub, json.dumps(obj)])
    assert code == 2
    assert payload["error"] == {
        "type": "InvalidParameter",
        "message": refusal.format(ceiling=ceiling, size=size)}


def test_fuzz(monkeypatch):
    """Each request as it is and once mutated; the unmutated ones stay far
    below every ceiling."""
    sizes = dict.fromkeys(cli.CEILINGS, 0)
    within = cli._within

    def record(name, size):
        sizes[name] = max(sizes[name], size)
        within(name, size)

    rng = random.Random(SEED)
    codes = {0: 0, 1: 0, 2: 0}
    for sub, obj in _requests():
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_within", record)
            _run([sub, _text(obj)])
        code, _ = _run([sub, _text(_mutate(rng, obj))])
        codes[code] += 1
    assert all(codes.values()), codes
    for name, size in sizes.items():
        assert size < NEAR * cli.CEILINGS[name][0], (name, size)
