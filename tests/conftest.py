import numpy as np
import pytest

from excitonchain import EnvironmentParams, HamiltonianParams


@pytest.fixture
def default_ham():
    return HamiltonianParams()


@pytest.fixture
def default_env():
    return EnvironmentParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def eigenbasis_operator():
    """Rebuild a channel's dense coupling matrix and rotate it, the long way.

    Returns a function (es, channel) -> (dim x dim) eigenbasis operator.
    Site weights w become diag(w) on the excited block for phonon channels
    and the ground <-> site matrix sum_s w_s (|0><s| + |s><0|) otherwise;
    eigenbasis-targeted channels couple the ground state to their target
    eigenstate directly.
    """
    def build(es, channel):
        dim = es.dimension
        op = np.zeros((dim, dim))
        if channel.eigen_target is not None:
            idx = dim - 1 if channel.eigen_target == "highest" else 1
            op[0, idx] = op[idx, 0] = 1.0
            return op
        if channel.kind == "phonon":
            op[1:, 1:] = np.diag(channel.operator)
        else:
            op[0, 1:] = op[1:, 0] = channel.operator
        return es.vectors.T @ op @ es.vectors

    return build
