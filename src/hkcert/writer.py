"""The files as written: instance and certificate payloads, laid out as JSON.

Every integer goes through hkcert.certificate's codec as a decimal string.
Construct and random write files; a verify process never loads this module.
"""

import json
from json.encoder import encode_basestring_ascii as _escape

from .certificate import SCHEMA_VERSION, TOOL_VERSION, _enc_int, _enc_ints, compute_digest
from .instance import BUDGETS, HKInstance


def _enc_vec(v):
    return _enc_ints(v.coords)


def instance_to_payload(inst: HKInstance):
    return {
        "n": _enc_int(inst.n),
        "pic_basis": [_enc_vec(p) for p in inst.pic_basis],
        "W": _enc_vec(inst.W),
        "B": _enc_vec(inst.B),
        "d": _enc_int(inst.d),
        "C0": _enc_int(inst.C0),
    }


_STR = frozenset((str,))


def _layout(obj, pad):
    """``json.dumps(obj, indent=1)`` of a value whose container opens at ``pad``.

    Strings go through json's C escaper, except a list of strings (a vector,
    a sigma row) with nothing to escape (printable ASCII, no quote or
    backslash): it is one join.  Numbers, and types json refuses, go to
    json.dumps.  Unlike json, a dict key must be a str.
    """
    if isinstance(obj, str):
        return _escape(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    inner = pad + " "
    quote = ""  # put around each item by the join
    if isinstance(obj, (list, tuple)):
        brackets = "[]"
        if _STR.issuperset(map(type, obj)):
            text = "".join(obj)
            if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
                quote, items = '"', obj
            else:
                items = map(_escape, obj)
        else:
            items = [_layout(x, inner) for x in obj]
    elif isinstance(obj, dict):
        brackets = "{}"
        items = [_escape(k) + ": " + (_escape(v) if isinstance(v, str) else _layout(v, inner))
                 for k, v in obj.items()]
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    sep = quote + ",\n" + inner + quote
    return brackets[0] + "\n" + inner + quote + sep.join(items) + quote + "\n" + pad + brackets[1]


def write_json(path, payload):
    """Write ``json.dumps(payload, indent=1)`` and a newline with one write.

    The text is complete before the file is opened, so a payload that cannot
    be serialised leaves no file.
    """
    text = _layout(payload, "")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def certificate_payload(inst: HKInstance, rec, wall, budgets):
    checks = [{"name": c.name, "ok": bool(c.ok), "details": c.details} for c in rec.checks]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "instance": instance_to_payload(inst),
        "record": {
            "A": _enc_vec(rec.A),
            "omega": _enc_vec(rec.omega),
            "u": _enc_int(rec.u),
            "C1": _enc_int(rec.C1),
            "g": _enc_int(rec.g),
            "t": _enc_int(rec.t),
            "e": _enc_int(rec.e),
            "H2": _enc_int(rec.H2),
            "v0": {"r": _enc_int(rec.v0.r), "m": _enc_int(rec.v0.m), "s": _enc_int(rec.v0.s)},
            "D": _enc_vec(rec.D),
            "source": _enc_vec(rec.source),
            "target": _enc_vec(rec.target),
            "sigma": list(map(_enc_ints, rec.sigma.matrix)),
            "epsilon": _enc_int(rec.epsilon),
            "rk_un": _enc_int(rec.rk_un),
            "alpha_x": {
                "num": _enc_vec(rec.alpha_x.representative.numerator),
                "den": _enc_int(rec.alpha_x.representative.denominator),
            },
        },
        "wall": {
            "g": _enc_int(wall.g),
            "C1": _enc_int(wall.C1),
            "C0": _enc_int(wall.C0),
            "tested_a": list(map(_enc_ints, wall.tested_a)),
            "verdict": bool(wall.verdict),
        },
        "checks": checks,
        "budgets": {k: _enc_int(budgets[k]) for k in BUDGETS},
    }
    payload["digest"] = compute_digest(payload)
    return payload
