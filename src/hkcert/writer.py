"""The files as written: each object of an instance or certificate is its
record's fields, in ``_fields`` order, laid out as JSON.  Every integer goes
through hkcert.certificate's codec as a decimal string.  Construct and random
write files; a verify process never loads this module.
"""

import json
from json.encoder import encode_basestring_ascii as _escape

from .certificate import SCHEMA_VERSION, TOOL_VERSION, _enc_int, _enc_ints, compute_digest
from .instance import BUDGETS, BrauerClass, HKInstance, MukaiVector
from .lattice import Isometry, LatticeVector

_INT, _STR = frozenset((int,)), frozenset((str,))


def _enc(x):
    """A field's value as JSON, by its type.  An int goes through _enc_int, a
    vector or a tuple of ints through _enc_ints, any other tuple entry by
    entry.  Sigma is written as its rows, v0 as r, m and s (the record holds
    H2 on its own) and alpha_x as num/den.  A type _ENC lacks raises KeyError:
    nothing is written as it is."""
    return _ENC[type(x)](x)


_ENC = {
    int: _enc_int,
    bool: bool,
    LatticeVector: lambda v: _enc_ints(v.coords),
    tuple: lambda t: _enc_ints(t) if _INT.issuperset(map(type, t)) else list(map(_enc, t)),
    Isometry: lambda sigma: list(map(_enc_ints, sigma.matrix)),
    MukaiVector: lambda v0: {"r": _enc_int(v0.r), "m": _enc_int(v0.m), "s": _enc_int(v0.s)},
    BrauerClass: lambda alpha: {"num": _enc(alpha.representative.numerator),
                                "den": _enc_int(alpha.representative.denominator)},
}


def _as_fields(obj, names):
    return {name: _enc(getattr(obj, name)) for name in names}


def instance_to_payload(inst: HKInstance):
    return _as_fields(inst, inst._fields)


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
        text = "".join(obj) if _STR.issuperset(map(type, obj)) else None
        if text is not None and text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            quote, items = '"', obj
        else:
            items = [_layout(x, inner) for x in obj]
    elif isinstance(obj, dict):
        brackets = "{}"
        items = [_escape(k) + ": " + _layout(v, inner) for k, v in obj.items()]
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
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "instance": instance_to_payload(inst),
        "record": _as_fields(rec, rec._fields[:-1]),  # all but checks, the last
        "wall": _as_fields(wall, wall._fields),
        "checks": [{"name": c.name, "ok": bool(c.ok), "details": c.details} for c in rec.checks],
        "budgets": {k: _enc_int(budgets[k]) for k in BUDGETS},
    }
    payload["digest"] = compute_digest(payload)
    return payload
