import numpy as np
import pytest

from widthlab import dmap as dm
from widthlab.domains import SphereDomain, bump_weight
from widthlab.manifold import round_sphere


@pytest.fixture(scope="session")
def dom():
    return SphereDomain()


@pytest.fixture(scope="session")
def s2():
    return round_sphere(2, 1.0)


@pytest.fixture(scope="session")
def s3():
    return round_sphere(3, 1.0)


@pytest.fixture(scope="session")
def identity_map(dom, s2):
    return dm.identity_sphere_map(dom, s2)


def chart0_bump_map(dom, s2, center=(0.1, -0.05), width=0.06, amp=0.25,
                    direction=(0.3, -0.2, 0.9), sync=True):
    """Identity plus a compactly supported chart-0 bump, projected back."""
    vec = np.asarray(direction, float)

    def fn(p):
        w = bump_weight(*SphereDomain.sphere_to_chart(0, p), center, width)
        return p + amp * w[..., None] * vec

    return dm.sphere_map(dom, s2, fn, sync=sync)


@pytest.fixture(scope="session")
def bump_map(dom, s2):
    return chart0_bump_map(dom, s2)
