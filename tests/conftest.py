import numpy as np
import pytest

from nhlab.eig import eig_full
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product
from nhlab.properties import _gaussians, _hermitian, _psd
from nhlab.scenarios import calibrate_s


def random_hermitian(rng, n):
    """The Hermitian matrix a property trial draws from ``rng``."""
    return _hermitian(_gaussians([rng], n)[0, 0])


def random_psd(rng, n, rank_deficiency=0):
    """The PSD matrix a property trial draws from ``rng``, of rank n - rank_deficiency."""
    return _psd(_gaussians([rng], n)[0],
                np.array([rank_deficiency]) if rank_deficiency else None)[0]


@pytest.fixture(scope="session")
def calibration():
    """Calibrated geometric ratio shared by every figure-level test."""
    return calibrate_s()


@pytest.fixture(scope="session")
def chain9(calibration):
    """The n=9 calibrated chain: (spec, h0, a, h, hpp)."""
    s = calibration["s"]
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=s)
    h0 = build_h0(spec)
    a = build_scaling(spec)
    return spec, h0, a, construct_product(h0, a), construct_gauge(h0, a)


@pytest.fixture(scope="session")
def chain9_systems(chain9):
    """Eigensystems of the calibrated chain trio (h0, h, hpp)."""
    _, h0, _, h, hpp = chain9
    return eig_full(h0), eig_full(h), eig_full(hpp)
