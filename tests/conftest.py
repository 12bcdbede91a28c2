import numpy as np
import pytest

import hbflow.linalg
from hbflow.assembly import assemble_load_vector, build_discrete_gradient
from hbflow.mesh import build_unit_disk_mesh, build_unit_square_mesh


@pytest.fixture(scope="session")
def square2():
    return build_unit_square_mesh(2)


@pytest.fixture(scope="session")
def square3():
    return build_unit_square_mesh(3)


@pytest.fixture(scope="session")
def square4():
    return build_unit_square_mesh(4)


@pytest.fixture(scope="session")
def square16():
    return build_unit_square_mesh(16)


@pytest.fixture(scope="session")
def disk1():
    return build_unit_disk_mesh(1)


@pytest.fixture(scope="session")
def disk3():
    return build_unit_disk_mesh(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_cg(monkeypatch):
    """Fails a test that reaches a CG step."""
    def no_work(*args):
        raise AssertionError("CG ran")

    monkeypatch.setattr(hbflow.linalg, "_jacobi_cg", no_work)


def problem_arrays(mesh, f=1.0):
    """Discrete gradient and load for a mesh, interior dofs only."""
    return build_discrete_gradient(mesh), assemble_load_vector(mesh, f)
