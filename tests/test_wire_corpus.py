"""The wire over a generated corpus: one sha256 per subcommand over the
(argv, exit code, stdout) of a few thousand seeded requests, accepted and
refused alike, each run in json and in text mode in process through
``cli.main``; and one sha256 over ``verify -o json`` at small flags with
``elapsed`` removed.

A change that means to alter the wire updates the hashes it moves and says
why.  ``PYTHONPATH=src python tests/test_wire_corpus.py`` prints the
hashes of the current tree.
"""

import contextlib
import hashlib
import io
import json
import random
from math import gcd

import pytest

from wresolve import cli

SEED = 20261018
QUICK = [
    "--cyclic-max", "6", "--germ-r-max", "3", "--rr-max", "10",
    "--en-r-max", "15", "--semi-max", "8", "--iib-max", "11", "--o3-cases", "5",
    "--trace-count", "200",
]
PINNED = {
    "basket": "646a10dd221ff89a6d7d4e44fe2415b66874074f2d726adeabebd488a65a8547",
    "depth": "8faa219c8e6609444f7700b554704072b2d22aec02de14c8e15996979be5cc1d",
    "resolve": "78e4f624ecaf9be90aa5e44e967a6080558c7c0593a14eab015bdc3d3b52e476",
    "blowup": "c948b35c100a9df9f66c3e8924a71da74ea1734e1ae4629ff72d1d74d56490b5",
    "en": "48390d74b49935c8017156b1a8a41f8539328f43eb9e95b31c50d7c44c85dc5d",
    "rr": "ae5c18741bc2ea06d65333ef5956548f40b5a21246b16bf638c38c78f4036bc0",
    "o3": "c1671d9f9eddc9c8e1b6cf4d82047daf44aacf8a400f3acf8c4c0286b83456a0",
    "trace": "de006ba5dfa1b168377ccae6513eea641eaec791222d1f496e6b08f65a336852",
    "verify": "83e16ee29ff5f687492d857aa2be1f90e46561919a562549ec73291aea1a88d4",
}


def _units(r):
    return [b for b in range(1, r) if gcd(b, r) == 1] or [0]


def _germ(rng, r_max=7, lam_max=6):
    r = rng.randint(1, r_max)
    support = {(0, rng.randint(1, lam_max))}
    for _ in range(rng.randint(0, 3)):
        support.add((rng.randint(1, 4), rng.randint(0, lam_max)))
    return {"r": r, "beta": rng.choice(_units(r)), "support": sorted(support)}


def _broken(rng, obj):
    """obj with one key dropped, retyped or added, or obj itself."""
    obj = dict(obj)
    pick = rng.randrange(6)
    keys = sorted(obj)
    if pick == 0 and keys:
        del obj[rng.choice(keys)]
    elif pick == 1 and keys:
        obj[rng.choice(keys)] = rng.choice([True, 1.5, None, "x", [], {}, -3])
    elif pick == 2:
        obj[rng.choice(["zz", "R1", "Case"])] = 1
    return obj


def _class_requests(rng):
    """Every terminal class name and alias with parameters around its range."""
    names = ["gorenstein", "smooth", "cyclic", "cA/r", "car", "cAx/2", "cax2",
             "cAx/4", "CAX4", "cD/2", "cd2", "cD/3", "cE/2", "ce2", "cZ/9", 7]
    out = []
    for name in names:
        for k in (None, -1, 0, 1, 2, 3, 5, "4", True):
            obj = {"class": name}
            if k is not None:
                obj["k"] = k
            out.append(obj)
    for r in range(0, 10):
        for _ in range(4):
            weights = [rng.randint(-r - 1, r + 1) for _ in range(3)]
            out.append({"class": "cyclic", "r": r, "weights": weights})
    out.append({"class": "cyclic", "r": 5, "weights": [1, 2]})
    for _ in range(40):
        out.append({"class": "cA/r", **_germ(rng)})
    for _ in range(20):
        out.append(_broken(rng, {"class": "cA/r", **_germ(rng)}))
    return out


def _depth_requests(rng):
    out = _class_requests(rng)
    for _ in range(120):
        out.append(_germ(rng, r_max=9, lam_max=9))
    for _ in range(30):
        out.append(_broken(rng, _germ(rng)))
    out += [{"r": 5, "beta": 5, "support": [[0, 1]]},
            {"r": 2, "beta": 1, "support": [[0, 0]]},
            {"r": 3, "beta": 1, "support": [[1, 1]]},
            {"r": 3, "beta": 1, "support": [[0, -1]]},
            {"r": 0, "beta": 1, "support": [[0, 1]]}]
    # depths on either side of 2^53, where integers turn into strings
    out += [{"r": r, "beta": 1, "support": [[0, 1]]}
            for r in (10**12, 2**53, 2**53 + 1, 2**60)]
    return out


def _resolve_requests(rng):
    out = []
    for _ in range(150):
        obj = _germ(rng, r_max=9, lam_max=12)
        if rng.random() < 0.2:
            obj["limit"] = rng.choice([0, 1, 5, 20, 200, -1, "7"])
        out.append(obj)
    for _ in range(20):
        out.append(_broken(rng, _germ(rng)))
    return out


def _blowup_requests(rng):
    out = []
    for _ in range(120):
        obj = _germ(rng)
        r, beta = obj["r"], obj["beta"]
        nu1 = min(i + j for i, j in obj["support"])
        total = r * nu1
        if rng.random() < 0.6 and r > 1:
            r1 = rng.choice(range(beta, max(total, beta + 1), r))
            r2 = total - r1
        else:
            r1, r2 = rng.randint(-1, total + 1), rng.randint(-1, total + 1)
        out.append({**obj, "r1": r1, "r2": r2})
    for _ in range(20):
        out.append(_broken(rng, {**_germ(rng), "r1": 1, "r2": 1}))
    return out


KX = [None, "-1", "-1/5", "-1/7", "-1/4", "-1/2", "0", "-2", "1/3", [-1, 3], "x"]


def _en_requests(rng):
    out = []
    for r in range(1, 14):
        for kx in KX:
            obj = {"case": rng.choice(["IC", "ic"]), "r": r}
            if kx is not None:
                obj["kx"] = kx
            if rng.random() < 0.1:
                obj["r1"] = 3
            out.append(obj)
    values = [1, 2, 3, 5, 6, 7, 10, 11, 15]
    for _ in range(80):
        obj = {"case": "IIB", **{f"r{n}": rng.choice(values) for n in range(1, 5)}}
        obj["kx"] = rng.choice(KX[1:6])
        out.append(obj)
    for r in range(1, 10):
        for a1 in range(0, r + 1):
            for a2 in range(0, r + 1):
                if rng.random() < 0.5:
                    continue
                obj = {"case": "IA", "r": r, "a1": a1, "a2": a2,
                       "kx": rng.choice(KX[1:8])}
                if rng.random() < 0.3:
                    obj["r1"] = rng.randint(-1, 3 * r)
                out.append(obj)
    for name in ("ExceptionalIAIA", "IA+IA+III", "exceptional_iaia", "iaiaiii"):
        for r in range(1, 14):
            for a2 in range(0, r + 1):
                obj = {"case": name, "r": r, "a2": a2}
                if rng.random() < 0.2:
                    obj["r1"] = rng.randint(-1, 3 * r)
                if rng.random() < 0.05:
                    obj["kx"] = "-1/2"
                out.append(obj)
    for r in range(1, 8):
        for rp in range(1, r + 2):
            for _ in range(4):
                obj = {"case": rng.choice(["SemistableIAIA", "semistable_IAIA"]),
                       "r": r, "a": rng.randint(0, r), "rprime": rp,
                       "aprime": rng.randint(0, rp)}
                if rng.random() < 0.2:
                    obj["r1"] = rng.randint(-1, 3 * r)
                out.append(obj)
    for _ in range(60):
        points = [[rng.randint(0, 7), rng.choice(["0", "1/2", "1/3", "2/3", "6/7", "-1/5", 1])]
                  for _ in range(rng.randint(0, 4))]
        out.append({"points": points})
    out += [{"case": "IX", "r": 5}, {"r": 5}, {"points": [[2]]}, {"points": 3}]
    for _ in range(20):
        out.append(_broken(rng, {"case": "IA", "r": 7, "a1": 1, "a2": 3, "kx": "-1/7"}))
    return out


def _rr_requests(rng):
    out = []
    for tag in ("E1_a4", "E1_a2", "E2", "E11", "O3"):
        for rp in (None, *range(0, 13)):
            top = 2 * (rp or 0) + 2
            for aw in (None, *range(0, top)):
                obj = {"case": rng.choice([tag, tag.lower(), tag.upper()])}
                if rp is not None:
                    obj["rprime"] = rp
                if aw is not None:
                    obj["aw"] = aw
                out.append(obj)
    fractions = [1, 2, "1/2", "3/2", "2/9", "1/9", "0", "-1/9", [1, 3], "5"]
    for _ in range(60):
        obj = {"a_over_n": rng.choice(fractions), "e3": rng.choice(fractions)}
        for key in ("basket_y", "basket_x"):
            if rng.random() < 0.7:
                obj[key] = _basket_rows(rng)
        out.append(obj)
    for _ in range(60):
        out.append({"basket": _basket_rows(rng)})
    out += [{"case": "E9"}, {"rprime": 3}, {"basket": 3}, {"basket": [[1, 2, 0]]}]
    return out


def _basket_rows(rng):
    rows = []
    for _ in range(rng.randint(0, 4)):
        r = rng.randint(1, 12)
        row = [rng.randint(0, r), r]
        if rng.random() < 0.5:
            row.append(rng.randint(0, 4))
        rows.append(row)
    return rows


def _o3_requests(rng):
    out = []
    for _ in range(150):
        a, d = rng.choice([3, 5, 7, 9]), rng.randint(1, 3)
        supp_a = {(2 * d, 0)}
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, 3 * d + 2)
            supp_a.add((i, max(0, 2 * a * d - a * i) + rng.randint(-1, 4)))
        supp_b = set()
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, 2 * d + 2)
            supp_b.add((i, max(0, -(-(2 * a * d - 1 - (2 * i + 1) * a) // 2))
                        + rng.randint(-1, 4)))
        obj = {"case": "A", "a": a, "d": d, "alpha": d + rng.randint(0, 3),
               "suppA": sorted(supp_a), "suppB": sorted(supp_b)}
        _o3_extras(rng, obj, a)
        out.append(obj)
    for _ in range(150):
        a, d = rng.choice([3, 5, 7, 9]), rng.randint(1, 3)
        supp_a, supp_b = set(), set()
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, 2 * d + 3)
            supp_a.add((i, max(0, (2 * d + 1) * a - a * i) + rng.randint(-1, 4)))
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, d + 2)
            supp_b.add((i, max(0, a * (d - i) - 1) + rng.randint(-1, 4)))
        obj = {"case": "B", "a": a, "d": d}
        if supp_a or rng.random() < 0.5:
            obj["suppA"] = sorted(supp_a)
        if supp_b or rng.random() < 0.5:
            obj["suppB"] = sorted(supp_b)
        _o3_extras(rng, obj, a)
        out.append(obj)
    out += [{"case": "C", "a": 3, "d": 1}, {"case": "B", "a": 4, "d": 1},
            {"case": "B", "a": 1, "d": 1}, {"case": "A", "a": 3, "d": 0, "alpha": 1},
            {"case": "A", "a": 3, "d": 1, "alpha": 0}, {"case": "B", "a": 3, "d": 1,
                                                        "suppA": [[-1, 2]]}]
    for _ in range(20):
        out.append(_broken(rng, {"case": "A", "a": 3, "d": 1, "alpha": 2,
                                 "suppA": [[2, 0]]}))
    return out


def _o3_extras(rng, obj, a):
    if rng.random() < 0.3:
        obj["kMax"] = rng.randint(-1, a + 1)
    if rng.random() < 0.3:
        obj["depQ3"] = rng.randint(-1, 9)


KINDS = ["WExtraction", "Flip", "Flop", "DivToPoint", "DivToCurve", "BlowDownLCI"]


def _trace_requests(rng):
    out = []
    for _ in range(250):
        steps, dep = [], rng.randint(0, 6)
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(KINDS)
            after = max(0, dep + rng.randint(-2, 2))
            before = dep if rng.random() < 0.85 else rng.randint(0, 6)
            steps.append({"kind": kind, "before": before, "after": after})
            dep = after
        out.append({"steps": steps})
    out += [{"steps": [{"kind": "Smooth", "before": 1, "after": 1}]},
            {"steps": [{"kind": "Flop", "before": -1, "after": 0}]},
            {"steps": [{"kind": "flop", "before": 1, "after": 1}]},
            {"steps": [1]}, {"steps": 1}, {}]
    for _ in range(20):
        step = _broken(rng, {"kind": "Flip", "before": 2, "after": 1})
        out.append({"steps": [{"kind": "Flop", "before": 2, "after": 2}, step]})
    return out


GENERATORS = {
    "basket": _class_requests,
    "depth": _depth_requests,
    "resolve": _resolve_requests,
    "blowup": _blowup_requests,
    "en": _en_requests,
    "rr": _rr_requests,
    "o3": _o3_requests,
    "trace": _trace_requests,
}


def corpus():
    """(subcommand, argv) for every request, in a fixed order."""
    for sub, generate in GENERATORS.items():
        rng = random.Random(f"{SEED}:{sub}")
        for obj in generate(rng):
            text = json.dumps(obj, separators=(",", ":"))
            yield sub, [sub, text]
            yield sub, [sub, text, "-o", "text"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_corpus():
    """sha256 per subcommand over its requests' (argv, exit code, stdout)
    lines, and over verify -o json at QUICK with elapsed removed; and the
    exit codes each subcommand gave."""
    digests = {sub: hashlib.sha256() for sub in GENERATORS}
    codes = {sub: set() for sub in GENERATORS}
    for sub, argv in corpus():
        code, out = _run(argv)
        digests[sub].update((json.dumps([argv, code, out]) + "\n").encode())
        codes[sub].add(code)
    hashes = {sub: digest.hexdigest() for sub, digest in digests.items()}
    code, text = _run(["verify", "-o", "json", *QUICK])
    payload = json.loads(text)
    for entry in payload:
        del entry["elapsed"]
    hashes["verify"] = hashlib.sha256(json.dumps([code, payload]).encode()).hexdigest()
    return hashes, codes


@pytest.fixture(scope="module")
def corpus_run():
    return run_corpus()


def test_corpus_has_accepted_and_refused_requests(corpus_run):
    _, codes = corpus_run
    assert all({0, 1, 2} <= codes[sub] for sub in GENERATORS), codes


@pytest.mark.parametrize("sub", list(PINNED))
def test_wire_hash_is_pinned(corpus_run, sub):
    assert corpus_run[0][sub] == PINNED[sub]


if __name__ == "__main__":
    print(json.dumps(run_corpus()[0], indent=4))
