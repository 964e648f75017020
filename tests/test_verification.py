import pytest

from lowzero import rayleigh, solver, verification


@pytest.mark.parametrize(
    "offset, passes",
    [(-1e-12, False), (0.0, True), (1e-12, True), (verification.ORACLE_TOL * 1.01, False)],
)
def test_oracle_case_passes_only_at_or_above_the_closed_form(monkeypatch, offset, passes):
    # the oracle bounds the minimum from above: one a hair below the closed
    # form is as wrong as one too far above it
    def shifted_oracle(g, R, N):
        return solver.minimal_quotient(g, R).bound + offset

    monkeypatch.setattr(rayleigh, "sqrt_quotient", shifted_oracle)
    cases = verification.oracle_equivalence_cases(grid_size=3, trunc=25)
    assert cases and all(case["pass"] is passes for case in cases)
