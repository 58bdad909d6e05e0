import pytest

from hkcert.lattice import build_lambda, direct_sum, hyperbolic_plane


@pytest.fixture(scope="session")
def lam2():
    return build_lambda(2)


@pytest.fixture(scope="session")
def uu():
    return direct_sum(hyperbolic_plane(), hyperbolic_plane(), label="U+U")


@pytest.fixture(scope="session")
def e2_instance():
    from test_corpus import e2_instance

    return e2_instance()
