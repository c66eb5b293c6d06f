"""Acceptance gate: every criterion runs at its stated tolerance (exact
equality throughout) and must finish inside its runtime target."""

import pytest

from virasoro.acceptance import CRITERIA

RUNTIME_TARGETS = {
    "kac-ratio": 6.0,      # levels 1..6 fully symbolic
    "gomes": 1.0,          # one level-2 determinant at c = 0
    "density-poly": 5.0,   # direct, product and determinant a_d for j <= 4
    "goldstone": 2.0,      # oscillator kernels at energies up to 9
    "binomial": 3.0,       # pairings and binomial determinants, |f| <= 6
    "characters": 2.0,     # rank oracle to level 11
    "discrete-characters": 12.0,  # rank oracle, 34 modules to level 10
    "fock": 30.0,          # identity suite at E_max = 7, pair space at 4
    "singular-triple": 25.0,  # curve vectors to level 9 over Q[t, 1/t]
    "singular-chain": 5.0,  # ladder laws, c = 1 products, chain norm orders
    "jantzen": 10.0,       # five Gram families, levels 1..6
    "character-sums": 10.0,  # five filtration character sums to q^6
}

RESULTS = {}


@pytest.mark.parametrize("key,title,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(key, title, fn):
    result = fn(level_cap=6, seed=20260809, emax=7, pair_emax=4)
    RESULTS[key] = result
    status = "PASS" if result["ok"] else "FAIL"
    print(f"{status} {key}: {title} ({result['elapsed']}s)")
    assert result["ok"], result["details"]
    target = RUNTIME_TARGETS.get(key)
    if target is not None:
        assert result["elapsed"] < target, f"{key} exceeded its runtime target"
