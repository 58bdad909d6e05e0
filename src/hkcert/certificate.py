"""Certificates: the integer codec, the reader and the independent verifier.

Every integer is serialized as a decimal string so consumers never face
64-bit overflow; the parser reads exactly that text, or a JSON integer.  The
files are written by hkcert.writer, which construct and random load and
verify does not; its three entry points are forwarded from here.  The
verifier recomputes each predicate from the instance and the recorded
parameters alone.  Recorded parameters make verification search-free: the
verifier evaluates, it never searches.  The content digest over the canonical
serialization catches accidental edits, not forged ones: anyone can recompute
it, and until ROADMAP item 26 nothing else binds checks, budgets or tool_version.
"""

import json
import re
import sys
from math import gcd

from . import obstruction
from .instance import (
    CheckResult,
    HKInstance,
    MukaiVector,
    b_field_class,
    brauer_equal,
    mukai_data,
    pic_coordinates,
    pushed_class,
    rank_factor,
    rank_factor_min_bits,
    transport_ends,
    validate_instance,
)
from .lattice import (
    Isometry,
    LatticeVector,
    RationalClass,
    acts_trivially_on_discriminant,
    build_lambda,
    divisibility,
    norm,
    pair,
)

SCHEMA_VERSION = "hkcert/1"
TOOL_VERSION = "0.1.0"


class CertificateFormatError(ValueError):
    """The file is not a structurally valid certificate or instance."""


# ---------------------------------------------------------------------------
# integer <-> decimal string helpers

# _enc_int(s) and _dec_int(s) are the only int <-> decimal string points.  The
# one integer grammar: an entry is a JSON integer or exactly the ASCII text
# str() writes for one.  The list codecs look up -64..64 (94% of the corpus's
# entries) in tables made once at import; a list with a miss, or one value,
# takes one fullmatch of its comma-joined text (int() then refuses a comma).
_STR_OF = {i: str(i) for i in range(-64, 65)}
_INT_OF = {s: i for i, s in _STR_OF.items()}
_NUMERAL = "(?:0|-?[1-9][0-9]*)"
_numerals = re.compile(f"{_NUMERAL}(?:,{_NUMERAL})*").fullmatch


def _enc_int(x):
    return str(int(x))


def _enc_ints(seq):
    """A tuple of ints as a JSON list of decimal strings; the mirror of _dec_ints."""
    try:
        return list(map(_STR_OF.__getitem__, seq))
    except KeyError:
        return list(map(str, seq))


def _dec_int(x, what):
    if type(x) is int:  # not bool, a subclass of int
        return x
    if type(x) is not str:
        raise CertificateFormatError(f"{what}: expected an integer or decimal string")
    if _numerals(x):
        try:
            return int(x)
        except ValueError:  # a comma, or over the int/str digit limit
            pass
    raise CertificateFormatError(f"{what}: bad integer {x!r}")


def _dec_ints(seq, what):
    """A JSON list of integers as a tuple of ints, each decoded as by _dec_int;
    a list that is not all numerals goes through _dec_int entry by entry, so
    the first bad entry raises the same error it would on its own."""
    try:
        return tuple(map(_INT_OF.__getitem__, seq))
    except (KeyError, TypeError):  # a miss, or an unhashable entry
        pass
    try:
        if _numerals(",".join(seq)):
            return tuple(map(int, seq))
    except (TypeError, ValueError):  # an entry not a str; one holding a comma, or over the digit limit
        pass
    return tuple(_dec_int(x, what) for x in seq)


def _dec_list(data, length, what):
    """A JSON list of exactly length integers: a vector, a sigma row or a wall pair."""
    if not isinstance(data, list) or len(data) != length:
        raise CertificateFormatError(f"{what}: expected {length} coordinates")
    return _dec_ints(data, what)


def _dec_vec(L, data, what):
    return LatticeVector(_dec_list(data, L.rank, what), L)


# ---------------------------------------------------------------------------
# instance files

def instance_from_payload(data) -> HKInstance:
    if not isinstance(data, dict):
        raise CertificateFormatError("instance: expected a JSON object")
    n = _dec_int(_require(data, "n", "instance"), "n")
    if n < 2:
        raise CertificateFormatError(f"instance: n must be >= 2, got {n}")
    L = build_lambda(n)
    pic_rows = _require(data, "pic_basis", "instance")
    if not isinstance(pic_rows, list) or not pic_rows:
        raise CertificateFormatError("instance: pic_basis must be a nonempty list")
    pic = tuple(_dec_vec(L, row, "pic_basis") for row in pic_rows)
    W, B = (_dec_vec(L, _require(data, k, "instance"), k) for k in ("W", "B"))
    d, C0 = (_dec_int(_require(data, k, "instance"), k) for k in ("d", "C0"))
    inst = HKInstance(n=n, pic_basis=pic, W=W, B=B, d=d, C0=C0)
    if inst.d < 1 or inst.C0 < 1:
        raise CertificateFormatError("instance: d and C0 must be positive")
    return inst


def _unique_keys(pairs):
    # json.load's object builder: a repeated key is refused, not read as its last value
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a repeated key, a bare integer over the int/str digit limit, or deep nesting
        raise CertificateFormatError(f"not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# certificates

# json.dumps(..., separators=(",", ":"), sort_keys=True), made once; no payload has cycles
_CANONICAL = json.JSONEncoder(separators=(",", ":"), sort_keys=True, check_circular=False)


# compute_digest hashes with hashlib's SHA-256 (OpenSSL) in a process that has
# imported hashlib, else with CPython's built-in one, whose import costs far
# less: _sha2 from 3.12, _sha256 before it, or hashlib's on a build without either
try:
    _builtin_sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:
    from hashlib import sha256 as _builtin_sha256


def compute_digest(payload):
    sha256 = getattr(sys.modules.get("hashlib"), "sha256", _builtin_sha256)
    body = {k: v for k, v in payload.items() if k != "digest"}
    canonical = _CANONICAL.encode(body)
    return "sha256:" + sha256(canonical.encode("utf-8")).hexdigest()


def _require(data, key, what):
    if not isinstance(data, dict) or key not in data:
        raise CertificateFormatError(f"{what}: missing field {key!r}")
    return data[key]


def verify_payload(payload):
    """Recompute every predicate of a certificate.  Returns a CheckResult list.

    Structural problems raise CertificateFormatError (CLI exit 2); failed
    predicates come back as entries with ok=False (CLI exit 1).
    """
    checks = []

    def add(name, ok, details=""):
        checks.append(CheckResult(name, bool(ok), details))

    if not isinstance(payload, dict):
        raise CertificateFormatError("certificate: expected a JSON object")
    recorded_digest = _require(payload, "digest", "certificate")
    add("digest", recorded_digest == compute_digest(payload), "content digest")
    add("schema_version", _require(payload, "schema_version", "certificate") == SCHEMA_VERSION)

    inst = instance_from_payload(_require(payload, "instance", "certificate"))
    L = inst.lattice
    for c in validate_instance(inst):
        add("instance_" + c.name, c.ok, c.details)

    rec = _require(payload, "record", "certificate")
    A, omega, D = (_dec_vec(L, _require(rec, k, "record"), k) for k in ("A", "omega", "D"))
    u, C1, g, t, e, H2 = (_dec_int(_require(rec, k, "record"), k) for k in ("u", "C1", "g", "t", "e", "H2"))
    v0f = _require(rec, "v0", "record")
    r_, m_, s_ = (_dec_int(_require(v0f, k, "v0"), k) for k in ("r", "m", "s"))
    epsilon, rk_un = (_dec_int(_require(rec, k, "record"), k) for k in ("epsilon", "rk_un"))

    add("class_a_in_pic", pic_coordinates(inst, A) is not None)
    add("class_a_divisibility", divisibility(A) == 1)
    a_w = pair(A, inst.W)
    add("class_a_pairing", a_w == C1 and C1 > 0, f"(A,W) = {a_w}")
    add("omega_in_pic", pic_coordinates(inst, omega) is not None)
    add("omega_orthogonal", pair(omega, inst.W) == 0)
    omega_norm = norm(omega)
    add("omega_positive", omega_norm > 0, f"norm {omega_norm}")

    add("divisor_formula", u >= 1 and D == A + u * omega)
    add("divisor_divisibility", divisibility(D) == 1)
    d_norm = norm(D)
    add("divisor_norm", d_norm == 2 * g, f"norm {d_norm} vs 2g = {2 * g}")
    add("divisor_bound", g > inst.C0 * C1, f"g = {g}, C0*C1 = {inst.C0 * C1}")
    add("divisor_pairing_w", pair(D, inst.W) == C1)
    add("divisor_pairing_b", pair(D, inst.B) == 0)

    # the transport ends of the recorded D, g, t and H2; the target is the twist
    expected_source, twist = transport_ends(inst, D, g, t, H2)
    add("twist_divisibility", t >= 1 and divisibility(twist) == 1)
    b_norm = norm(inst.B)
    add("e_matches_b", b_norm == 2 * e, f"norm(B) = {b_norm}")

    r, m, s, H2_formula = mukai_data(inst.n, g, t, inst.d, e)
    add("mukai_s_formula", s_ == s)
    add("mukai_r_formula", r_ == r)
    add("mukai_m_formula", m_ == m)
    add("degree_formula", H2 == H2_formula, f"H2 = {H2}")
    v0 = MukaiVector(r=r_, m=m_, s=s_, H2=H2)
    v0_square = v0.self_pairing()
    add("mukai_isotropic", v0_square == 0, f"v0^2 = {v0_square}")
    add("mukai_gcd_rs", gcd(r_, s_) == 1)
    add("mukai_rank", r_ >= 2)
    den = g * m  # 4gtd^2
    add("mukai_stability", den >= 1 and (H2 // 2 + 1) % den != 0)
    # an rk_un no longer than the lower bound fails unseen, so the product is
    # only formed when it is about rk_un's size
    add(
        "rank_factor",
        r_ >= 2
        and rk_un.bit_length() > rank_factor_min_bits(inst.n, r_)
        and rk_un == rank_factor(inst.n, r_),
    )

    source, target = (_dec_vec(L, _require(rec, k, "record"), k) for k in ("source", "target"))
    add("source_formula", source == expected_source)
    add("target_formula", target == twist)
    source_norm, target_norm = norm(source), norm(target)
    add("transport_norms", source_norm == target_norm, f"{source_norm} vs {target_norm}")
    add("transport_div_source", divisibility(source) == 1)
    add("transport_div_target", divisibility(target) == 1)

    sig_rows = _require(rec, "sigma", "record")
    if not isinstance(sig_rows, list) or len(sig_rows) != L.rank:
        raise CertificateFormatError("record: sigma must be a rank x rank matrix")
    sig_mat = tuple(_dec_list(row, L.rank, "sigma") for row in sig_rows)
    af = _require(rec, "alpha_x", "record")
    alpha_num = _dec_vec(L, _require(af, "num", "alpha_x"), "alpha_x.num")
    alpha_den = _dec_int(_require(af, "den", "alpha_x"), "alpha_x.den")
    if alpha_den == 0:
        raise CertificateFormatError("alpha_x: zero denominator")
    recorded_alpha = RationalClass(alpha_num, alpha_den)
    sigma = None
    try:
        sigma = Isometry(sig_mat, L)
        add("sigma_gram_identity", True)
    except ValueError as exc:
        add("sigma_gram_identity", False, str(exc))
    add("epsilon_sign", epsilon in (1, -1), f"epsilon = {epsilon}")
    if sigma is not None:
        add("sigma_determinant", sigma.det() == 1 and sigma.orientation() == 1)
        add("sigma_discriminant_trivial", acts_trivially_on_discriminant(sigma))
        add("transport_maps", epsilon in (1, -1) and sigma.apply(source) == epsilon * target)
        if den == 0:
            add("alpha_matches_record", False, "4gtd^2 = 0")
            add("alpha_is_b_field", False, "4gtd^2 = 0")
        else:
            recomputed = pushed_class(inst, sigma, H2, den, epsilon)
            add("alpha_matches_record", recomputed.representative == recorded_alpha)
            add("alpha_is_b_field", brauer_equal(recomputed, b_field_class(inst)))

    wall = _require(payload, "wall", "certificate")
    wg, wc1, wc0 = (_dec_int(_require(wall, k, "wall"), "wall." + k) for k in ("g", "C1", "C0"))
    add("wall_parameters", wg == g and wc1 == C1 and wc0 == inst.C0)
    recorded = _require(wall, "tested_a", "wall")
    verdict = _require(wall, "verdict", "wall")
    if not isinstance(recorded, list):
        raise CertificateFormatError("wall: tested_a must be a list")
    # compare the length first: the details name the expected count, and the
    # loop below stops at the recorded list's end, so a short one would pass
    expected = obstruction.max_a(wc0)
    enumerated, details = iter(()), f"expected {expected} tested values of a"
    if len(recorded) == expected:
        try:
            enumerated, details = obstruction.wall_pairs(wg, wc1, wc0), ""
        except ValueError as exc:
            details = str(exc)
    # each entry is decoded as it is compared with the next enumerated pair,
    # so a malformed one is a format error wherever it sits
    same = not details
    for entry in recorded:
        same = _dec_list(entry, 2, "wall.tested_a") == next(enumerated, None) and same
    add("wall_enumeration", same, details)
    if not details:
        add("wall_verdict", verdict is True)

    recorded_checks = _require(payload, "checks", "certificate")
    if not isinstance(recorded_checks, list):
        raise CertificateFormatError("certificate: checks must be a list")
    add(
        "recorded_checks_true",
        all(isinstance(c, dict) and c.get("ok") is True for c in recorded_checks),
    )
    return checks


def __getattr__(name):  # the file writer, from hkcert.writer on first use
    if name not in ("instance_to_payload", "write_json", "certificate_payload"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import writer
    globals()[name] = value = getattr(writer, name)
    return value
