"""Rendering of verification results, text and structured.

Both renderers are deterministic: the same result object always produces the
same bytes, so reports can be diffed and frozen in tests. The structured form
is a JSON document tagged with report_version; the text form keeps one line
per congruence in the fixed shape

    S(s1^2) = 46400/361, v_5 = 2

so downstream greps never have to parse free prose.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from .exact import CyclotomicNumber, cyclotomic_field, real_embedding
from .engine import VerificationResult

REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# algebraic-number display
# ---------------------------------------------------------------------------

def _fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _quadratic_split(x: CyclotomicNumber):
    """(r, c, d) with x = r + c*sqrt(d), when x generates a real quadratic
    subfield: exactly when sigma_g(x) != x = sigma_g(sigma_g(x)) for the
    generator g of the cyclic Galois group, and sigma_g(x) is the other
    conjugate."""
    field = cyclotomic_field(x.m)
    g = field.generator
    other = x.galois_apply(g)
    if other == x or other.galois_apply(g) != x:
        return None
    s = x + other
    q = x * other
    r = s.rational_part() / 2
    t = r * r - q.rational_part()          # (x - r)^2 = r^2 - q
    if t <= 0:
        return None
    # x - r = c*sqrt(d) generates the one quadratic subfield Q(sqrt(+-p)) of
    # Q(zeta_m); t > 0 makes it the real one, so d = p and t = c^2 * p
    d = field.p
    c = Fraction(isqrt(t.numerator * t.denominator // d), t.denominator)
    if real_embedding(x).value < r:
        c = -c
    return r, c, d


def format_algebraic(x: CyclotomicNumber) -> str:
    """Readable exact form: '24/19', '-48 - 16*sqrt(5)', or the power basis."""
    if x.is_rational():
        return _fmt_rational(x.rational_part())
    split = _quadratic_split(x)
    if split is not None:
        r, c, d = split
        root = f"sqrt({d})" if abs(c) == 1 else f"{_fmt_rational(abs(c))}*sqrt({d})"
        if r == 0:
            return root if c > 0 else f"-{root}"
        sign = "+" if c > 0 else "-"
        return f"{_fmt_rational(r)} {sign} {root}"
    terms = []
    for i, c in enumerate(x.coeffs):
        z = "z" if i == 1 else f"z^{i}"
        if c and i == 0:
            terms.append(_fmt_rational(c))
        elif c in (1, -1):
            terms.append(f"-{z}" if c < 0 else z)
        elif c:
            terms.append(f"{_fmt_rational(c)}*{z}")
    return " + ".join(terms).replace("+ -", "- ") + f"  [z = zeta_{x.m}]"


def format_polynomial(coeffs: tuple[Fraction, ...], var: str = "x") -> str:
    """Ascending coefficient tuple -> 'x^2 - 48*x + 256'."""
    parts: list[str] = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        if deg == 0:
            body = _fmt_rational(abs(c))
        else:
            xq = var if deg == 1 else f"{var}^{deg}"
            body = xq if abs(c) == 1 else f"{_fmt_rational(abs(c))}*{xq}"
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
    lines: list[str] = []
    lines.append(f"dataset: {result.dataset_label}")
    lines.append(f"p = {p}   modulus: {p}^{result.n_required}   route: {result.route}")
    lines.append("")
    lines.append("hypotheses:")
    for h in result.hypotheses:
        status = _STATUS_TEXT.get(h.status, h.status)
        detail = f"   [{h.detail}]" if h.detail and h.status == "fails" else ""
        lines.append(f"  ({h.key}) {status:<8} {h.description}{detail}")
    if result.characters:
        lines.append("")
        lines.append("normalized leading terms:")
        seen_polys = []
        for label, cr in result.characters.items():
            corr = f"u = {format_algebraic(cr.correction.u)}, t = {_fmt_rational(cr.correction.t)}"
            lines.append(
                f"  Q({label}) = {format_algebraic(cr.q_value)}   "
                f"[route {cr.route}; order {cr.declared_order}; {corr}; "
                f"v_{p} = {cr.p_valuation}]")
            if cr.min_poly is not None and cr.min_poly not in seen_polys:
                seen_polys.append(cr.min_poly)
        for poly in seen_polys:
            lines.append(f"  induced orbit minimal polynomial: {format_polynomial(poly)}")
    if result.congruences:
        lines.append("")
        lines.append(f"congruence sums over the rotation subgroup (target v_{p} >= "
                     f"{result.n_required}):")
        for line in result.congruences:
            lines.append(f"  S({line.element}) = {_fmt_rational(line.value)}, "
                         f"v_{p} = {line.valuation_str()}")
        lines.append("")
        lines.append(f"p-unit condition: {'ok' if result.unit_ok else 'VIOLATED'};  "
                     f"Galois equivariance: {'ok' if result.equivariance_ok else 'VIOLATED'}")
        agree = {True: "agrees", False: "DISAGREES", None: "not applicable"}
        lines.append(f"group-ring membership: {agree[result.membership_agrees]};  "
                     f"order-p shortcut: {agree[result.shortcut_agrees]}")
    if result.notes:
        lines.append("")
        lines.append("notes:")
        for note in result.notes:
            lines.append(f"  - {note}")
    lines.append("")
    lines.append(f"verdict: {result.verdict}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structured report
# ---------------------------------------------------------------------------

def structured_report(result: VerificationResult) -> dict:
    doc = {
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
            {"element": line.element, "value": _fmt_rational(line.value),
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
    return doc


def render_structured(result: VerificationResult) -> str:
    return json.dumps(structured_report(result), indent=2, sort_keys=True) + "\n"


def render(result: VerificationResult, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "structured":
        return render_structured(result)
    raise ValueError(f"unknown report format {fmt!r}")
