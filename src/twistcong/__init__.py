"""Exact p-adic congruence checks for twisted elliptic L-value data over
dihedral extensions, with leading-term (BSD-style) mod-squares bookkeeping.

The workflow: load a dataset (curve constants, local data at ramified places,
leading terms with error bounds, height translates), recognize the normalized
leading terms as exact algebraic numbers, and test the group-ring congruences
S(pi) = 0 mod p^n together with their equivalent reformulations.

The package root exports nothing, so that importing one submodule loads only
what it uses: import twistcong.dataset, twistcong.engine, twistcong.report
and the others directly.
"""

__version__ = "0.1.0"
