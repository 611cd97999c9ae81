import numpy as np
import pytest

from algebroid import catalog
from algebroid.charts import AVector
from algebroid.hamiltonian import (
    DualPoint,
    euler_identity_residual,
    hamiltonian_field,
    poisson_matrix,
)
from algebroid.paths import geodesic_rhs
from algebroid.sampling import sample_box, sample_fiber


class TestPoissonMatrix:
    def test_flat_chart_blocks(self, euclidean2):
        p = DualPoint([0.2, 0.4], [1.0, -1.0])
        pi = poisson_matrix(euclidean2.chart, p)
        np.testing.assert_array_equal(pi[:2, :2], 0.0)
        np.testing.assert_array_equal(pi[2:, 2:], 0.0)
        np.testing.assert_array_equal(pi[:2, 2:], -np.eye(2))
        np.testing.assert_array_equal(pi[2:, :2], np.eye(2))

    def test_rotation_algebra_cyclic_brackets(self, so3):
        xi = np.array([0.3, 0.5, 0.7])
        pi = poisson_matrix(so3.chart, DualPoint([0.0], xi))
        # {xi_1, xi_2} = xi_3 and cyclic
        assert pi[1, 2] == pytest.approx(xi[2])
        assert pi[2, 3] == pytest.approx(xi[0])
        assert pi[3, 1] == pytest.approx(xi[1])
        np.testing.assert_array_equal(pi, -pi.T)

    def test_central_extension_blocks(self, heisenberg):
        xi = np.array([0.1, 0.2, 0.3])
        pi = poisson_matrix(heisenberg.chart, DualPoint([0.5, -0.5], xi))
        assert pi[0, 2] == -1.0  # {x1, xi_1}
        assert pi[1, 3] == -1.0  # {x2, xi_2}
        assert pi[0, 4] == 0.0  # {x1, xi_3}: a3 has zero anchor
        assert pi[1, 4] == 0.0
        assert pi[2, 3] == pytest.approx(xi[2])  # {xi_1, xi_2} = xi_3


class TestHamiltonianField:
    def test_flat_chart(self, euclidean2):
        dx, dmu = hamiltonian_field(
            euclidean2.chart, euclidean2.metric, AVector([0.0, 0.0], [1.0, 2.0])
        )
        np.testing.assert_allclose(dx, [1.0, 2.0])
        np.testing.assert_allclose(dmu, [0.0, 0.0])

    def test_biinvariant_field_vanishes(self, so3, rng):
        for _ in range(20):
            v = AVector([0.0], rng.randn(3))
            dx, dmu = hamiltonian_field(so3.chart, so3.metric, v)
            assert np.max(np.abs(dx)) == 0.0
            assert np.max(np.abs(dmu)) < 1e-15

    def test_affine_algebra_value(self, aff2):
        dx, dmu = hamiltonian_field(aff2.chart, aff2.metric, AVector([0.0], [0.0, 1.0]))
        np.testing.assert_allclose(dx, [0.0])
        np.testing.assert_allclose(dmu, [-1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("name", catalog.names())
    def test_equivalence_with_primal_field(self, name):
        # the Poisson/dual route against the connection-coefficient route,
        # computed by disjoint code paths
        entry = catalog.get(name)
        xs = sample_box(entry.chart.domain, 100, seed=42, shrink=0.05)
        mus = sample_fiber(entry.chart.r, 100, seed=42)
        worst = 0.0
        for x, mu in zip(xs, mus):
            dx_h, dmu_h = hamiltonian_field(entry.chart, entry.metric, AVector(x, mu))
            dx_g, dmu_g = geodesic_rhs(entry.chart, entry.metric, x, mu)
            worst = max(
                worst,
                float(np.max(np.abs(dx_h - dx_g))),
                float(np.max(np.abs(dmu_h - dmu_g))),
            )
        assert worst < 1e-8

    @pytest.mark.parametrize("name", catalog.names())
    def test_energy_conserved_infinitesimally(self, name, rng):
        # {E, E} = 0: the field annihilates its own Hamiltonian
        entry = catalog.get(name)
        chart, metric = entry.chart, entry.metric
        for _ in range(10):
            x = sample_box(chart.domain, 1, seed=rng.randint(10**6), shrink=0.05)[0]
            mu = rng.randn(chart.r)
            dx, dmu = hamiltonian_field(chart, metric, AVector(x, mu))
            G, dG, _ = metric.eval(x, order=1)
            dE_dx = 0.5 * np.einsum("s,stu,t->u", mu, dG, mu)
            dE_dmu = G @ mu
            rate = dE_dx @ dx + dE_dmu @ dmu
            assert abs(rate) < 1e-12

    @pytest.mark.parametrize("name", catalog.names())
    def test_homogeneity_identity(self, name, rng):
        entry = catalog.get(name)
        for _ in range(10):
            x = sample_box(entry.chart.domain, 1, seed=rng.randint(10**6), shrink=0.05)[0]
            v = AVector(x, rng.randn(entry.chart.r))
            assert euler_identity_residual(entry.chart, entry.metric, v) < 1e-12
