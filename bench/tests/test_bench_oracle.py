"""The benchmark's exact references. Run: python3 -m pytest bench/tests"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import oracle as O  # noqa: E402


@pytest.mark.parametrize("drive,kappa", [(0.18, 1.0), (0.3, 2.0)])
def test_empty_cavity_holds_a_coherent_state(drive, kappa):
    cav = O.Cavity(g=0.0, kappa=kappa, gamma=1.0, drive=drive, fock_cutoff=10)
    assert O.mean_photons(cav) == pytest.approx(4.0 * drive**2 / kappa**2, rel=1e-6)


def test_coherent_cavity_correlators_are_flat():
    cav = O.Cavity(g=0.0, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=10)
    assert np.allclose(O.regression_g2(cav, 0.05, 40), 1.0, atol=1e-6)
    assert np.allclose(O.regression_h(cav, 0.05, 40), 1.0, atol=1e-6)


def test_steady_state_is_a_density_matrix():
    rho = O.steady_state(O.Cavity(g=0.75, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=8))
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert O.Cavity(0.75, 1.0, 1.0, 0.18, 8).liouvillian().shape == (256, 256)


def test_default_system_is_antibunched_with_a_dip_in_h():
    cav = O.Cavity(g=0.75, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=8)
    assert O.regression_g2(cav, 0.1, 2)[0] < 1.0
    assert O.regression_h(cav, 0.1, 2)[0] < 1.0


def test_strong_coupling_mode_sits_at_the_coupling():
    cav = O.Cavity(g=3.0, kappa=1.0, gamma=1.0, drive=0.1, fock_cutoff=8)
    assert O.coupling_frequency(cav) == pytest.approx(3.0, rel=0.01)
    assert abs(O.eigenfrequencies(cav)[0]) < 1e-9  # the steady state


def test_classical_closed_forms():
    assert O.thermal_g2(0.0, 2.0) == pytest.approx(2.0)
    assert O.thermal_g2([-1.0, 1.0], 2.0) == pytest.approx([1.0 + math.exp(-1.0)] * 2)
    assert O.thermal_g2(50.0, 2.0) == pytest.approx(1.0)
    assert np.all(O.poisson_g2(np.arange(5.0)) == 1.0)
    assert O.shot_width(8.0, 2.0) == pytest.approx(8.0 * math.sqrt(2.0 * math.pi))
