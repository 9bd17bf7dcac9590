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
    """Rebuild a channel's dense coupling matrices and rotate them, the
    long way.

    Returns a function (es, channel) -> list of (dim x dim) eigenbasis
    operators, one per row of the channel's site weights.  A row w
    becomes diag(w) on the excited block for phonon channels and the
    ground <-> site matrix sum_s w_s (|0><s| + |s><0|) otherwise;
    eigenbasis-targeted channels couple the ground state to their target
    eigenstate directly, as one operator.
    """
    def build(es, channel):
        dim = es.dimension
        if channel.eigen_target is not None:
            op = np.zeros((dim, dim))
            idx = dim - 1 if channel.eigen_target == "highest" else 1
            op[0, idx] = op[idx, 0] = 1.0
            return [op]
        ops = []
        for w in channel.operator:
            op = np.zeros((dim, dim))
            if channel.kind == "phonon":
                op[1:, 1:] = np.diag(w)
            else:
                op[0, 1:] = op[1:, 0] = w
            ops.append(es.vectors.T @ op @ es.vectors)
        return ops

    return build
