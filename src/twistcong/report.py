"""Rendering of verification results, text and structured.

Both renderers are deterministic: the same result object always produces the
same bytes, so reports can be diffed and frozen in tests. The structured form
is a JSON document tagged with report_version; the text form keeps one line
per congruence in the fixed shape

    S(s1^2) = 46400/361, v_5 = 2

so downstream greps never have to parse free prose.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exact import CyclotomicNumber, cyclotomic_field
from .engine import VerificationResult

REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# algebraic-number display
# ---------------------------------------------------------------------------

def _quadratic_split(x: CyclotomicNumber):
    """(r, c, p) with x = r + c*sqrt(p), when the irrational x lies in the
    real quadratic subfield of Q(zeta_m), m = p^n: there is one when p = 1
    mod 4, and x lies in it exactly when sigma_(g^2) fixes x, g the generator
    of the cyclic Galois group. By Gauss's sign, sqrt(p) is the sum of
    (a/p) zeta_p^a with zeta_p = z^q (Washington, GTM 83, ch. 4): -1 at z^0,
    -2 at z^(nq) for each non-residue n < p - 1, 0 elsewhere. g mod p is
    such an n."""
    field = cyclotomic_field(x.m)
    g = field.generator
    if field.p % 4 != 1 or x.galois_apply(g * g) != x:
        return None
    c = Fraction(-x.num[g % field.p * field.q], 2 * x.den)
    return Fraction(x.num[0], x.den) + c, c, field.p


def format_algebraic(x: CyclotomicNumber) -> str:
    """Readable exact form: '24/19', '-48 - 16*sqrt(5)', or the power basis."""
    if x.is_rational():
        # num[0] and den are coprime with den > 0, as a Fraction's terms are
        return str(x.num[0]) if x.den == 1 else f"{x.num[0]}/{x.den}"
    split = _quadratic_split(x)
    if split is not None:
        r, c, d = split
        root = f"sqrt({d})" if abs(c) == 1 else f"{abs(c)}*sqrt({d})"
        if r == 0:
            return root if c > 0 else f"-{root}"
        return f"{r} {'+' if c > 0 else '-'} {root}"
    terms = []
    for i, c in enumerate(x.coeffs):
        z = "z" if i == 1 else f"z^{i}"
        if c and i == 0:
            terms.append(str(c))
        elif c in (1, -1):
            terms.append(f"-{z}" if c < 0 else z)
        elif c:
            terms.append(f"{c}*{z}")
    return " + ".join(terms).replace("+ -", "- ") + f"  [z = zeta_{x.m}]"


def format_polynomial(coeffs: tuple[Fraction, ...], var: str = "x") -> str:
    """Ascending coefficient tuple -> 'x^2 - 48*x + 256'."""
    parts: list[str] = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        if deg == 0:
            body = str(abs(c))
        else:
            xq = var if deg == 1 else f"{var}^{deg}"
            body = xq if abs(c) == 1 else f"{abs(c)}*{xq}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# text report
# ---------------------------------------------------------------------------

_STATUS_TEXT = {"holds": "holds", "fails": "FAILS", "undetermined": "assumed"}


def render_text(result: VerificationResult) -> str:
    p = result.p
    lines = [f"dataset: {result.dataset_label}",
             f"p = {p}   modulus: {p}^{result.n_required}   route: {result.route}",
             "", "hypotheses:"]
    for h in result.hypotheses:
        status = _STATUS_TEXT.get(h.status, h.status)
        detail = f"   [{h.detail}]" if h.detail and h.status == "fails" else ""
        lines.append(f"  ({h.key}) {status:<8} {h.description}{detail}")
    if result.characters:
        lines += ["", "normalized leading terms:"]
        seen_polys = []
        for label, cr in result.characters.items():
            corr = f"u = {format_algebraic(cr.correction.u)}, t = {cr.correction.t}"
            lines.append(
                f"  Q({label}) = {format_algebraic(cr.q_value)}   "
                f"[route {cr.route}; order {cr.declared_order}; {corr}; "
                f"v_{p} = {cr.p_valuation}]")
            if cr.min_poly is not None and cr.min_poly not in seen_polys:
                seen_polys.append(cr.min_poly)
        for poly in seen_polys:
            lines.append(f"  induced orbit minimal polynomial: {format_polynomial(poly)}")
    if result.congruences:
        lines += ["", f"congruence sums over the rotation subgroup (target v_{p} >= "
                      f"{result.n_required}):"]
        for line in result.congruences:
            lines.append(f"  S({line.element}) = {line.value}, "
                         f"v_{p} = {line.valuation_str()}")
        lines += ["", f"p-unit condition: {'ok' if result.unit_ok else 'VIOLATED'};  "
                      f"Galois equivariance: {'ok' if result.equivariance_ok else 'VIOLATED'}"]
        agree = {True: "agrees", False: "DISAGREES", None: "not applicable"}
        lines.append(f"group-ring membership: {agree[result.membership_agrees]};  "
                     f"order-p shortcut: {agree[result.shortcut_agrees]}")
    if result.notes:
        lines += ["", "notes:"]
        for note in result.notes:
            lines.append(f"  - {note}")
    lines += ["", f"verdict: {result.verdict}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structured report
# ---------------------------------------------------------------------------

def structured_report(result: VerificationResult) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "dataset": result.dataset_label,
        "p": result.p,
        "n_required": result.n_required,
        "route": result.route,
        "verdict": result.verdict,
        "hypotheses": [
            {"key": h.key, "description": h.description, "status": h.status,
             "detail": h.detail}
            for h in result.hypotheses
        ],
        "characters": {
            label: {
                "route": cr.route,
                "declared_order": cr.declared_order,
                "q_value": format_algebraic(cr.q_value),
                "q_coefficients": [str(c) for c in cr.q_value.coeffs],
                "conductor": cr.q_value.m,
                "recognized": format_algebraic(cr.recognized),
                "u": format_algebraic(cr.correction.u),
                "t": str(cr.correction.t),
                "min_poly": ([str(c) for c in cr.min_poly]
                             if cr.min_poly is not None else None),
                "p_valuation": str(cr.p_valuation),
            }
            for label, cr in result.characters.items()
        },
        "congruences": [
            {"element": line.element, "value": str(line.value),
             "valuation": line.valuation_str(), "ok": line.ok}
            for line in result.congruences
        ],
        "checks": {
            "unit_ok": result.unit_ok,
            "equivariance_ok": result.equivariance_ok,
            "membership_agrees": result.membership_agrees,
            "shortcut_agrees": result.shortcut_agrees,
        },
        "notes": list(result.notes),
    }


def write_json(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte, for a tree of
    dicts with str keys, lists and tuples, and str, int, bool and None leaves,
    each of exactly that type: one str.join per container, where the standard
    encoder runs a Python generator per container once indent is set."""
    quote = encode_basestring_ascii

    def write(x, newline: str) -> str:
        # x sits at the indent newline ends with; its members break one deeper
        kind, inner = type(x), newline + "  "
        if kind is str:
            return quote(x)
        if kind is dict:
            return "{" + inner + ("," + inner).join([
                quote(k) + ": " + (quote(v) if type(v) is str else write(v, inner))
                for k, v in sorted(x.items())]) + newline + "}" if x else "{}"
        if kind is list or kind is tuple:
            return "[" + inner + ("," + inner).join([
                quote(v) if type(v) is str else write(v, inner)
                for v in x]) + newline + "]" if x else "[]"
        if kind is int:
            return str(x)
        if x is None or kind is bool:
            return "null" if x is None else "true" if x else "false"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    return write(doc, "\n")


def render_structured(result: VerificationResult) -> str:
    return write_json(structured_report(result)) + "\n"


def render(result: VerificationResult, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "structured":
        return render_structured(result)
    raise ValueError(f"unknown report format {fmt!r}")
