import numpy as np
import pytest

from stlscond import GeneratorSpec, StlsProblem, generate, numerics, solve_stls


@pytest.fixture
def diagonal_problem():
    """Fixture with A'b = 0, so x = 0 and r = (0, 0, -0.5): every condition
    formula collapses to explicit diagonal arithmetic."""
    A = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.0, 0.0, 0.5])
    return StlsProblem(A, b, 1.0)


@pytest.fixture
def diagonal_solution(diagonal_problem):
    return solve_stls(diagonal_problem)


@pytest.fixture
def gen_problem():
    """Callable fixture: generate and solve one synthetic problem."""

    def build(m, n, lam, e_p, seed):
        gp = generate(GeneratorSpec(m=m, n=n, lam=lam, e_p=e_p, seed=seed))
        return gp.problem, solve_stls(gp.problem)

    return build


@pytest.fixture(scope="session")
def generator_reflectors():
    """Callable fixture: the unit vectors y and z of the reflectors
    Y = I - 2 y y' and Z = I - 2 z z' from which ``generate(spec)`` builds
    [A, lam*b] = Y [D; 0] Z', drawn again from the spec's seed in the
    generator's order, and checked to rebuild that matrix."""

    def draw(spec):
        rng = np.random.default_rng(spec.seed)
        y = numerics.unit_sphere_sample(spec.m, rng)
        z = numerics.unit_sphere_sample(spec.n + 1, rng)
        gp = generate(spec)
        D = np.zeros((spec.m, spec.n + 1))
        D[: spec.n + 1] = np.diag(gp.known_singular_values)
        Y = np.eye(spec.m) - 2.0 * np.outer(y, y)
        Z = np.eye(spec.n + 1) - 2.0 * np.outer(z, z)
        assert np.max(np.abs(Y @ D @ Z.T - gp.problem.augmented())) <= 1e-13 * spec.n * spec.m
        return y, z

    return draw


@pytest.fixture
def dlasd4_failing():
    """LAPACK's dlasd4 reporting INFO > 0, a failed iteration."""
    real = numerics.dlasd4

    def failing(d, z, rho):
        delta, sigma, work, _ = real(d, z, rho)
        return delta, sigma, work, 1

    return failing
