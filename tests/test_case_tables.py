"""Each case family's table covers exactly its public records: the terminal
classes, the en shapes, the o3 shapes and the rr tags.  A row added or
dropped without its entry point fails here."""

import json

from wresolve import baskets, chains, cli, neighborhoods, riemannroch
from wresolve.baskets import CyclicQuotient, TerminalClass
from wresolve.germs import CARGerm, DepthBound, depth_bound

# one sample per datum a class table row can name
_SAMPLES = {
    "quotient": CyclicQuotient(5, (2, 3, 1)),
    "germ": CARGerm(5, 2, frozenset({(0, 3), (1, 1)})),
    "k": 2,
}


def _string_constants(module):
    return {v for k, v in vars(module).items() if k.isupper() and isinstance(v, str)}


def _run(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_every_kind_has_a_row_and_a_cli_alias(capsys):
    assert _string_constants(baskets) == set(baskets.KINDS) == set(baskets._KINDS)
    for kind in baskets.KINDS:
        datum, required, *_ = baskets._KINDS[kind]
        assert datum is None or datum in TerminalClass._fields
        tc = TerminalClass(kind, **({datum: _SAMPLES[datum]} if datum else {}))
        assert isinstance(baskets.basket_of(tc), baskets.Basket)
        assert isinstance(depth_bound(tc), DepthBound)
        for alias in (kind.lower(), kind.lower().replace("/", "")):
            code, out = _run(capsys, ["basket", json.dumps({"class": alias})])
            if code:
                # the alias is known; only the class's own datum is missing
                assert required and "missing key" in out["error"]["message"]
            else:
                assert out["class"] == kind


_EN_SAMPLES = {
    neighborhoods.ICCase: (5,),
    neighborhoods.IIBCase: (7, 2, 5, 1),
    neighborhoods.IACase: (7, 1, 3),
    neighborhoods.ExceptionalIAIACase: (5, 3),
    neighborhoods.SemistableIAIACase: (5, 2, 3, 2),
    neighborhoods.IAIAIIICase: (7, 5),
}


def test_every_en_shape_has_one_kx_rule_and_one_fiber_rule(capsys):
    shapes = {
        obj for obj in vars(neighborhoods).values()
        if isinstance(obj, type) and issubclass(obj, neighborhoods._Shape)
        and issubclass(obj, tuple)
    }
    assert shapes == set(neighborhoods.EN_CASES) == set(_EN_SAMPLES)
    for cls, args in _EN_SAMPLES.items():
        case = cls(*args)
        # the caller's K_X . C or the shape's own, never both or neither
        assert (case._kx_max is None) != (case._own_kx is None), cls
        # a fixed fiber degree or an r1 congruence, never both or neither
        assert (case._cf is None) != (case._congruence is None), cls
        kx = case._kx_max
        verdict = neighborhoods.key_check(case, kx=kx)
        assert verdict.cf == neighborhoods.cf_intersection(case)
        request = {"case": neighborhoods._case_name(cls), **case._asdict()}
        if kx is not None:
            request["kx"] = str(kx)
        code, out = _run(capsys, ["en", json.dumps(request)])
        assert code == 0 and out["ky_cy"] == cli._encode(verdict.ky_cy), cls


def test_both_o3_shapes_have_their_rules_and_a_cli_name(capsys):
    assert chains.O3_SHAPES == (chains.O3CaseA, chains.O3CaseB)
    # each sample with its coordinate count: (x, y, z, u) and (x, y, z, u, w)
    samples = [(chains.O3CaseA(3, 1, 2, frozenset({(2, 0)})), 4),
               (chains.O3CaseB(3, 1), 5)]
    for case, coordinates in samples:
        chains.check_constraints(case)
        assert chains.nonnegativity_check(case).ok
        assert chains.depth_identity(case, 0).check
        assert len(chains.chain_weights(case, 0)) == coordinates
        stages = case._walk(None)
        assert len(stages) == case.a + 1
        shape = type(case).__name__.removeprefix("O3Case")
        request = {"case": shape, "a": case.a, "d": case.d,
                   "suppA": [list(p) for p in case.supp_a]}
        if shape == "A":
            request["alpha"] = case.alpha
        code, out = _run(capsys, ["o3", json.dumps(request)])
        assert code == 0 and out["case"] == shape and len(out["stages"]) == case.a + 1


def test_every_rr_tag_has_a_row_and_a_cli_name(capsys):
    tags = set(riemannroch.TAGS)
    assert _string_constants(riemannroch) == tags == set(riemannroch._TAGS)
    for tag in riemannroch.TAGS:
        over, forms, _ = riemannroch._TAGS[tag]
        assert (over is None) == (forms is None)
        request = {"case": tag}
        if over is not None:  # an E1/E2 family: its least r', and aw = 1
            request |= {"rprime": over + 1, "aw": 1}
        code, out = _run(capsys, ["rr", json.dumps(request)])
        if tag == riemannroch.O3:
            assert (code, out["error"]["message"]) == (
                2, "the O3 case is handled by the chain module")
        else:
            assert code == 0 and out["case"] == tag and out["check"]["ok"], tag
