import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    assert_sof_bits_match_full_phase_penalty,
    feasible_m_hat,
    gram_state,
    random_paths,
    stack_paths,
    traced_state,
)
from oracles import b_vector, quadratic_matrix, receiver_correlation
from prmimo import (
    ArrayGeometry,
    InvalidInputError,
    NumericalFailureError,
    PathSet,
    SofState,
    run_sof,
)
import prmimo.montecarlo as montecarlo
import prmimo.sof as sof
from prmimo.sof import solve_modification_vector


class TestReceiverCorrelation:
    def test_identical_angles(self):
        geom = ArrayGeometry(n_t=8, n_r=4)
        assert receiver_correlation(geom, 0.37, 0.37) == 1.0

    def test_half_wavelength_null(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        # sin difference of one puts the two elements in antiphase
        assert abs(receiver_correlation(geom, 0.0, np.pi / 2)) <= 1e-15

    def test_single_receive_antenna(self):
        geom = ArrayGeometry(n_t=4, n_r=1)
        for a, b in [(0.0, 1.0), (-0.5, 0.3), (1.2, -1.2)]:
            assert receiver_correlation(geom, a, b) == 1.0

    def test_magnitude_bounded(self):
        geom = ArrayGeometry(n_t=8, n_r=5)
        rng = np.random.default_rng(71)
        for _ in range(30):
            rho = receiver_correlation(geom, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert abs(rho) <= 1.0 + 1e-12


class TestBVector:
    def test_identical_departures_all_ones(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        assert_allclose(b_vector(geom, np.ones(4), 0.5, 0.5), np.ones(4) / 4.0)

    def test_sparsity_follows_column(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        column = np.zeros(4)
        column[2] = 2.0
        b = b_vector(geom, column, 0.1, -0.3)
        assert np.count_nonzero(b) == 1 and b[2] != 0

    def test_factorization_recovers_gram_entry(self):
        rng = np.random.default_rng(72)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 5)
        m_hat = feasible_m_hat(rng, 8, 5)
        traced = traced_state(geom, paths, m_hat)
        new, fixed = 0, 1
        rho = receiver_correlation(geom, paths.aoa[new], paths.aoa[fixed])
        b = b_vector(geom, m_hat[:, fixed], paths.aod[new], paths.aod[fixed])
        product = rho * (b @ m_hat[:, new])
        # The factored product lands on the transposed Gram entry; the
        # magnitude (all the optimization uses) is shared by both.
        assert_allclose(product, traced.gram[fixed, new], atol=1e-12)
        assert_allclose(abs(product), abs(traced.gram[new, fixed]), atol=1e-12)


class TestQuadraticMatrix:
    def test_zero_receive_correlation(self):
        b = np.ones(3) + 1j * np.ones(3)
        assert_allclose(quadratic_matrix(0.0, b), np.zeros((3, 3)))

    def test_real_coupling_vector(self):
        b = np.array([1.0, 2.0, 0.5])
        rho = 0.5 + 0.5j
        assert_allclose(quadratic_matrix(rho, b), abs(rho) ** 2 * np.outer(b, b), rtol=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(73)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        mat = quadratic_matrix(0.7 - 0.2j, b)
        assert np.array_equal(mat, mat.T)
        assert np.linalg.eigvalsh(mat)[0] >= -1e-12

    def test_quadratic_form_equals_squared_gram_entry(self):
        rng = np.random.default_rng(74)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 4)
        m_hat = feasible_m_hat(rng, 8, 4)
        traced = traced_state(geom, paths, m_hat)
        new, fixed = 2, 0
        rho = receiver_correlation(geom, paths.aoa[new], paths.aoa[fixed])
        b = b_vector(geom, m_hat[:, fixed], paths.aod[new], paths.aod[fixed])
        mat = quadratic_matrix(rho, b)
        form = m_hat[:, new] @ mat @ m_hat[:, new]
        assert_allclose(form, abs(traced.gram[new, fixed]) ** 2, atol=1e-10)


class TestSolveModificationVector:
    def test_diagonal_case(self):
        solution = solve_modification_vector(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(solution, np.sqrt(3.0) * np.eye(3)[:, 1], atol=1e-12)
        objective = solution @ np.diag([3.0, 1.0, 2.0]) @ solution
        assert_allclose(objective, 3.0, rtol=1e-12)

    def test_zero_matrix_still_feasible(self):
        solution = solve_modification_vector(np.zeros((4, 4)))
        assert np.all(solution >= 0)
        assert abs(solution @ solution - 4.0) <= 1e-10

    def test_sign_ambiguity_resolved(self):
        # Smallest eigenvector is v or -v; the mostly-negative orientation
        # must be flipped rather than clipped away.
        v = np.array([-0.8, -0.5, -0.2, 0.27])
        v /= np.linalg.norm(v)
        b = np.eye(4) - 0.9 * np.outer(v, v)
        solution = solve_modification_vector(b)
        assert np.all(solution >= 0)
        assert abs(solution @ solution - 4.0) <= 1e-10

    def test_exact_tie_gives_one_column_for_both_signs(self, monkeypatch):
        # The null vector of [[1, 1], [1, 1]] is u = [1, -1] / sqrt(2); u and
        # -u clip to the same l1 mass, so the first nonzero entry is made
        # positive and LAPACK's sign cannot move the column.
        u = np.array([1.0, -1.0]) / np.sqrt(2.0)
        for sign in (1.0, -1.0):
            vectors = np.column_stack([sign * u, np.abs(u)])
            monkeypatch.setattr(np.linalg, "eigh", lambda a, v=vectors: (np.array([0.0, 2.0]), v))
            solution = solve_modification_vector(np.ones((2, 2)))
            assert_allclose(solution, [np.sqrt(2.0), 0.0], rtol=1e-15)
            assert solution[1] == 0.0

    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(75)
        for _ in range(25):
            raw = rng.standard_normal((6, 6))
            solution = solve_modification_vector(raw @ raw.T)
            assert np.all(solution >= 0)
            assert abs(solution @ solution - 6.0) <= 1e-10

    def test_nonnegative_smallest_eigenvector_is_returned(self):
        # B = Q diag(values) Q^T with a positive unit eigenvector v of the
        # smallest of its ascending values: nothing is clipped, so the
        # solution is sqrt(n) v, an eigenvector of that value.
        rng = np.random.default_rng(88)
        for n in (3, 8, 32):
            v = rng.uniform(0.1, 1.0, n)
            v /= np.linalg.norm(v)
            q = np.linalg.qr(np.column_stack([v, rng.standard_normal((n, n - 1))]))[0]
            values = np.cumsum(rng.uniform(0.5, 1.5, n))
            b = (q * values) @ q.T
            solution = solve_modification_vector(b)
            assert_allclose(solution, np.sqrt(n) * v, atol=1e-10)
            assert_allclose(b @ solution, values[0] * solution, atol=1e-9 * values[-1])

    @pytest.mark.parametrize("n, symmetric", [(8, True), (16, False)])
    def test_stack_matches_single_calls_bit_for_bit(self, n, symmetric):
        # A non-symmetric stack is symmetrized matrix by matrix too.
        rng = np.random.default_rng(82)
        stack = rng.standard_normal((6, n, n))
        if symmetric:
            stack = stack @ stack.swapaxes(1, 2)
        solutions = solve_modification_vector(stack)
        assert solutions.shape == (6, n)
        for i in range(6):
            assert np.array_equal(solutions[i], solve_modification_vector(stack[i]))

    def test_transpose_gives_the_same_bits(self):
        # Only the symmetric part (B + B^T) / 2 is solved.
        rng = np.random.default_rng(89)
        for n in (5, 16):
            b = rng.standard_normal((n, n))
            assert np.array_equal(solve_modification_vector(b), solve_modification_vector(b.T))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (3,), (0, 0), (2, 0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(InvalidInputError, match="coefficient matrix shape"):
            solve_modification_vector(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        b = np.stack([np.eye(3), np.eye(3)])
        b[1, 0, 2] = bad
        with pytest.raises(InvalidInputError, match="coefficient matrix contains non-finite"):
            solve_modification_vector(b)

    def test_non_convergence_message_states_the_norm(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericalFailureError) as raised:
            solve_modification_vector(np.array([[3.0, 8.0], [0.0, 0.0]]))
        # The norm of the symmetrized matrix [[3, 4], [4, 0]].
        assert str(raised.value) == "symmetric eigendecomposition did not converge (norm 6.40312)"
        assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.filterwarnings("error")
    def test_rejects_finite_entries_that_overflow_when_symmetrized(self):
        # B + B^T overflows to inf: rejected, with no overflow warning and
        # no NaN vector, alone or as one matrix of a stack.
        b = np.array([[1e308, 1.7e308], [1.7e308, 1e308]])
        for coefficients in (b, np.stack([np.eye(2), b])):
            with pytest.raises(InvalidInputError, match="coefficient matrix contains non-finite"):
                solve_modification_vector(coefficients)

    def test_near_grid_optimum_small_instance(self):
        # 2-degree sweep of the nonnegative octant of the radius-sqrt(3)
        # sphere; the grid minimum minus a Lipschitz slack lower-bounds the
        # solver objective.
        step = np.deg2rad(2.0)
        angles = np.deg2rad(np.arange(0.0, 90.0 + 1e-9, 2.0))
        tt, pp = np.meshgrid(angles, angles, indexing="ij")
        pts = np.sqrt(3.0) * np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        rng = np.random.default_rng(76)
        for _ in range(10):
            raw = rng.standard_normal((3, 3))
            b = raw @ raw.T
            solution = solve_modification_vector(b)
            objective = solution @ b @ solution
            grid_min = np.einsum("ij,jk,ik->i", pts, b, pts).min()
            slack = np.linalg.eigvalsh(b)[-1] * 3.0 * np.sqrt(2.0) * step
            assert objective >= grid_min - slack


class TestRunSof:
    def test_single_path(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0], aod=[0.2], aoa=[0.1])
        state = run_sof(geom, paths)
        assert state.order.tolist() == [0]
        assert np.array_equal(state.m_hat, np.ones((4, 1)))

    def test_orthogonal_receive_pair(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 1.0], aod=[0.2, -0.4], aoa=[0.0, np.pi / 2])
        state = run_sof(geom, paths)
        # Uncorrelated pair: the quadratic penalty vanishes, second column
        # is solved from the zero matrix but stays feasible.
        assert sorted(state.order.tolist()) == [0, 1]
        norms = np.sum(state.m_hat**2, axis=0)
        assert_allclose(norms, [4.0, 4.0], atol=1e-10)
        assert np.all(state.m_hat >= 0)
        assert np.array_equal(state.m_hat[:, state.order[0]], np.ones(4))

    def test_tie_breaks_to_lowest_index(self):
        geom = ArrayGeometry(n_t=4, n_r=2)
        paths = PathSet(gains=[1.0, 1.0], aod=[0.3, 0.3], aoa=[0.1, 0.1])
        state = run_sof(geom, paths)
        assert state.order.tolist() == [0, 1]

    def test_full_instance_invariants(self):
        rng = np.random.default_rng(77)
        geom = ArrayGeometry(n_t=32, n_r=8)
        paths = random_paths(rng, 80)
        state = run_sof(geom, paths)
        assert sorted(state.order.tolist()) == list(range(80))
        norms = np.sum(state.m_hat**2, axis=0)
        assert np.max(np.abs(norms - 32.0)) <= 1e-10
        assert np.all(state.m_hat >= 0)
        assert np.array_equal(state.m_hat[:, state.order[0]], np.ones(32))

    def test_incremental_gram_matches_recomputation(self):
        rng = np.random.default_rng(78)
        geom = ArrayGeometry(n_t=32, n_r=8)
        paths = random_paths(rng, 80)
        state = run_sof(geom, paths)
        fresh = traced_state(geom, paths, state.m_hat)
        assert np.max(np.abs(state.gram - fresh.gram)) <= 1e-10
        assert np.max(np.abs(state.indicator - fresh.indicator)) <= 1e-10

    def test_each_step_indicator_equals_full_recompute(self, monkeypatch):
        # The loop refreshes only the changed row and column of the squared
        # magnitudes, and its indicator picks every later target; at each
        # step it must equal the full recompute of the refreshed Gram
        # matrix bit for bit, for one path set and for a stack.
        refresh, steps = sof._refresh, []

        def checked(geometry, recv, basis, g, sq, *args):
            indicator = refresh(geometry, recv, basis, g, sq, *args)
            assert np.array_equal(indicator, gram_state(g).indicator)
            steps.append(indicator.shape)
            return indicator

        monkeypatch.setattr(sof, "_refresh", checked)
        rng = np.random.default_rng(81)
        geom = ArrayGeometry(n_t=32, n_r=8)
        for paths, shape in (
            (random_paths(rng, 80), (1, 80)),
            (stack_paths([random_paths(rng, 160) for _ in range(3)]), (3, 160)),
        ):
            steps.clear()
            state = run_sof(geom, paths)
            assert state.indicator.shape == paths.gains.shape
            assert steps == [shape] * (shape[1] - 1)

    def test_objective_matches_gram_definition(self):
        # Columns are designed once and never revisited, so the penalty
        # matrices can be rebuilt from the final columns after the fact.
        rng = np.random.default_rng(79)
        geom = ArrayGeometry(n_t=8, n_r=4)
        paths = random_paths(rng, 12)
        state = run_sof(geom, paths)
        traced = traced_state(geom, paths, state.m_hat)
        for i in range(1, 12):
            target = state.order[i]
            accumulated = np.zeros((8, 8))
            for k in state.order[:i]:
                rho = receiver_correlation(geom, paths.aoa[target], paths.aoa[k])
                b = b_vector(geom, state.m_hat[:, k], paths.aod[target], paths.aod[k])
                accumulated += quadratic_matrix(rho, b)
            objective = state.m_hat[:, target] @ accumulated @ state.m_hat[:, target]
            expected = sum(abs(traced.gram[target, k]) ** 2 for k in state.order[:i])
            assert abs(objective - expected) <= 1e-9 * max(1.0, expected)

    def test_deterministic(self):
        rng = np.random.default_rng(80)
        geom = ArrayGeometry(n_t=16, n_r=4)
        paths = random_paths(rng, 20)
        first = run_sof(geom, paths)
        second = run_sof(geom, paths)
        assert np.array_equal(first.order, second.order)
        assert np.array_equal(first.m_hat, second.m_hat)


class TestRunSofOnStacks:
    @pytest.mark.parametrize(
        "n_t, n_r, n_paths, size",
        [
            pytest.param(16, 4, 12, 2, id="2"),
            pytest.param(16, 4, 12, 3, id="3"),
            pytest.param(16, 4, 12, 8, id="8"),
            # The benchmark shapes, in the campaign batch sizes there.
            pytest.param(32, 8, 8, 12, id="L8-12"),
            pytest.param(32, 8, 80, 6, id="L80-6"),
            pytest.param(32, 8, 160, 3, id="L160-3"),
        ],
    )
    def test_matches_single_runs_bit_for_bit(self, n_t, n_r, n_paths, size):
        if n_t == 32:
            assert montecarlo.batch_size(n_paths, n_t) == size
        rng = np.random.default_rng(84)
        geom = ArrayGeometry(n_t=n_t, n_r=n_r)
        path_sets = [random_paths(rng, n_paths) for _ in range(size)]
        batch = run_sof(geom, stack_paths(path_sets))
        assert batch.order.shape == (size, n_paths)
        for row, paths in enumerate(path_sets):
            single = run_sof(geom, paths)
            assert np.array_equal(batch.order[row], single.order)
            assert np.array_equal(batch.m_hat[row], single.m_hat)
            assert np.array_equal(batch.gram[row], single.gram)
            assert np.array_equal(batch.indicator[row], single.indicator)

    def test_states_match_recomputation(self):
        rng = np.random.default_rng(85)
        geom = ArrayGeometry(n_t=32, n_r=8)
        path_sets = [random_paths(rng, 40) for _ in range(3)]
        batch = run_sof(geom, stack_paths(path_sets))
        for row, paths in enumerate(path_sets):
            g = batch.gram[row]
            fresh = traced_state(geom, paths, batch.m_hat[row])
            assert np.max(np.abs(g - fresh.gram)) <= 1e-10

    def test_one_set_comes_back_unstacked(self):
        paths = random_paths(np.random.default_rng(87), 3)
        single = run_sof(ArrayGeometry(n_t=4, n_r=2), paths)
        stacked = run_sof(ArrayGeometry(n_t=4, n_r=2), stack_paths([paths]))
        assert single.order.shape == (3,) and single.m_hat.shape == (4, 3)
        assert single.gram.shape == (3, 3) and single.indicator.shape == (3,)
        assert np.array_equal(single.m_hat, stacked.m_hat[0])
        assert np.array_equal(single.gram, stacked.gram[0])


class TestPenaltyBits:
    """The penalty takes its phases where the columns are nonzero only, and
    ``run_sof`` keeps the bits of the phases taken on every entry."""

    @pytest.mark.parametrize(
        "n_t, n_r, spacing_t, n_paths",
        [(7, 3, 0.5, 21), (12, 4, 0.5, 40), (12, 4, 0.37, 40), (32, 8, 0.37, 80)],
    )
    def test_batches(self, n_t, n_r, spacing_t, n_paths):
        rng = np.random.default_rng(n_t * n_paths)
        geometry = ArrayGeometry(n_t=n_t, n_r=n_r, spacing_t=spacing_t)
        sets = [random_paths(rng, n_paths) for _ in range(3)]
        assert_sof_bits_match_full_phase_penalty(geometry, stack_paths(sets))

    def test_duplicated_departure_angles(self):
        rng = np.random.default_rng(91)
        paths = random_paths(rng, 24)
        aod = np.repeat(paths.aod[:8], 3)
        paths = PathSet(gains=paths.gains, aod=aod, aoa=paths.aoa)
        assert_sof_bits_match_full_phase_penalty(ArrayGeometry(n_t=12, n_r=4), paths)

    def test_zero_gain_path(self):
        rng = np.random.default_rng(92)
        paths = random_paths(rng, 16)
        gains = paths.gains.copy()
        gains[5] = 0.0
        paths = PathSet(gains=gains, aod=paths.aod, aoa=paths.aoa)
        assert_sof_bits_match_full_phase_penalty(ArrayGeometry(n_t=7, n_r=3, spacing_t=0.37), paths)


@pytest.mark.parametrize("order", [[0, 0], [1, 0, 2]], ids=["repeated", "too-long"])
def test_state_rejects_an_order_that_is_no_permutation_of_the_paths(order):
    with pytest.raises(InvalidInputError, match="order must be a permutation"):
        SofState(order, np.ones((4, 2)), np.eye(2))


@pytest.mark.parametrize(
    "m_hat, gram, message",
    [
        # It built, with a Gram that fits no set of the columns.
        (np.ones((2, 2)), np.eye(3), r"gram shape \(3, 3\) does not fit m_hat: need \(2, 2\)"),
        (np.ones((3, 4, 2)), np.eye(2), r"\(2, 2\) does not fit m_hat: need \(3, 2, 2\)"),
        (np.ones(2), np.eye(2), "m_hat must be"),
        (np.ones((4, 0)), np.ones((0, 0)), "m_hat must be"),
    ],
    ids=["gram-too-large", "gram-unstacked", "vector-columns", "no-paths"],
)
def test_state_rejects_a_gram_that_does_not_fit_the_columns(m_hat, gram, message):
    order = np.broadcast_to(np.arange(m_hat.shape[-1]), m_hat.shape[:-2] + m_hat.shape[-1:])
    with pytest.raises(InvalidInputError, match=message):
        SofState(order, m_hat, gram)


def test_state_converts_list_columns():
    # A list raised AttributeError: 'list' object has no attribute 'shape'.
    state = SofState([1, 0], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]])
    assert state.m_hat.dtype == float and state.m_hat.shape == (2, 2)
    assert state.gram.dtype == complex
    assert np.array_equal(state.indicator, [0.25, 0.25])
