"""The prescribed-locus scenarios of ``closed_form`` on every structure
kind and both sides: the sampled locus, the charts, the Gamma-power and
DPhi against their exact values."""

import numpy as np
import pytest

from gradlocus import (build_phi, companion_map, sample_locus,
                       scenario_from_dict)

import closed_form

CASES = [(kind, 2, side) for kind in closed_form.KINDS
         for side in ("left", "right")] + [("general", 3, "left")]


@pytest.mark.parametrize("kind,m,side", CASES,
                         ids=[f"{k}-m{m}-{s}" for k, m, s in CASES])
def test_closed_form_locus(kind, m, side):
    s = scenario_from_dict(closed_form.scenario(kind, m, side))
    phi = build_phi(companion_map(s.form), s.f, s.F, s.side)
    samples = sample_locus(phi, s.box_array(), s.n_seeds, s.options)
    X = samples.x
    assert len(X) >= 20
    assert (samples.phi_norm <= s.options.tol_residual).all()
    assert closed_form.graph_defect(X, m).max() <= 1e-10
    assert (samples.charts == closed_form.charts(m)).all()
    assert (np.abs(np.abs(samples.gamma_value) - closed_form.gamma_abs(X, m))
            <= 1e-12 * samples.gamma_scale).all()
    DPhi = phi.dphi(X)[1]
    norm = np.linalg.norm(DPhi, axis=(1, 2))
    assert (np.linalg.norm(DPhi - closed_form.dpsi(X, m), axis=(1, 2))
            <= 1e-12 * norm).all()
