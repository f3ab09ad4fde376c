"""Tests for operator-derived quadrature rules."""

import math

import numpy as np
import pytest

from splineqi import (
    KnotSequence,
    exactness_degree,
    gs1,
    nb_dqi_nonuniform,
    qi_to_quadrature,
    s2,
    schoenberg,
    uniform_nb_dqi,
)
from splineqi.partitions import random_admissible_clamped, random_breakpoints, random_clamped


class TestRuleConstruction:
    def test_uniform_quadratic_midpoint_like(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 11))
        rule = qi_to_quadrature(schoenberg(ks))
        # interior weights equal the span width, nodes at the midpoints
        assert rule.weights[5] == pytest.approx(0.1, rel=1e-13)
        assert rule.nodes[5] == pytest.approx(0.45, rel=1e-13)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)

    def test_integral_operator_rejected(self):
        q = gs1(KnotSequence.clamped(2, [0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="discrete"):
            qi_to_quadrature(q)

    def test_weight_sum_is_domain_width(self):
        rng = np.random.default_rng(30)
        for m in (2, 3, 4):
            ks = KnotSequence.clamped(m, -1.0 + 3.0 * random_breakpoints(9, rng))
            for q in (schoenberg(ks), s2(ks)):
                rule = qi_to_quadrature(q)
                assert rule.weights.sum() == pytest.approx(3.0, rel=1e-12)

    def test_exactness_constant_every_family(self):
        rng = np.random.default_rng(31)
        ks = random_clamped(2, 10, rng)
        for q in (schoenberg(ks), s2(ks)):
            rule = qi_to_quadrature(q)
            assert rule.apply(lambda x: np.ones_like(x)) == pytest.approx(
                1.0, rel=1e-12
            )


    def test_matches_per_index_loop(self):
        # oracle: the rule summed one functional entry at a time, in index order
        rng = np.random.default_rng(33)
        ops = [
            uniform_nb_dqi(4, 2, nspans=10),
            nb_dqi_nonuniform(random_admissible_clamped(12, rng, 2), 2),
        ]
        for m in (2, 3, 5):
            ks = random_clamped(m, 9, rng)
            ops += [schoenberg(ks), s2(ks)]
        for q in ops:
            ks, acc = q.ks, {}
            for i, bi in enumerate(ks.basis_integrals().tolist()):
                for node, w in q.functionals[i].point_entries:
                    acc[node] = acc.get(node, 0.0) + w * bi
            rule = qi_to_quadrature(q)
            assert np.array_equal(rule.nodes, [ks.greville(j) for j in sorted(acc)])
            assert np.array_equal(rule.weights, [acc[j] for j in sorted(acc)])


class TestExactnessDegree:
    def test_s2_rule_integrates_squares(self):
        ks = KnotSequence.clamped(2, np.linspace(0.0, 1.0, 11))
        rule = qi_to_quadrature(s2(ks))
        assert rule.apply(lambda x: x**2) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_transfer_on_random_partitions(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            ks = random_clamped(2, 9, rng)
            assert exactness_degree(qi_to_quadrature(schoenberg(ks)), 2) >= 1
            assert exactness_degree(qi_to_quadrature(s2(ks)), 2) >= 2

    def test_nonuniform_nb_rule(self):
        rng = np.random.default_rng(33)
        ks = random_admissible_clamped(12, rng, 2)
        rule = qi_to_quadrature(nb_dqi_nonuniform(ks, 2))
        assert exactness_degree(rule, 2) >= 2

    def test_cubic_nb_rule_degree_three(self):
        rule = qi_to_quadrature(uniform_nb_dqi(4, 2, nspans=20))
        assert exactness_degree(rule, 3) >= 3

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e6])
    def test_same_degree_on_a_shifted_domain(self, offset):
        # far from 0 the degree-2 error of S1 fell under a tolerance relative
        # to the raw monomial integrals, so the degree was overstated
        ks = KnotSequence.clamped(2, offset + np.linspace(0.0, 1.0, 11))
        assert exactness_degree(qi_to_quadrature(schoenberg(ks)), 3) == 1
        assert exactness_degree(qi_to_quadrature(s2(ks)), 3) == 3

    def test_s2_rule_degree_three_of_five(self):
        rule = qi_to_quadrature(s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 6))))
        assert exactness_degree(rule, 5) == 3
        # degree 4 fails by far more than roundoff
        assert abs(rule.apply(lambda x: (x - 0.5) ** 4) - 1.0 / 80.0) > 1e-6
        assert exactness_degree(rule, 0) == 0

    @pytest.mark.parametrize("max_degree", [True, 2.0, -1, "3"])
    def test_max_degree_must_be_an_integer(self, max_degree):
        rule = qi_to_quadrature(s2(KnotSequence.clamped(2, np.linspace(0.0, 1.0, 6))))
        with pytest.raises(ValueError, match="max_degree must be an integer >= 0"):
            exactness_degree(rule, max_degree)


class TestConvergence:
    @pytest.mark.parametrize(
        "maker,q",
        [
            (lambda N: schoenberg(KnotSequence.clamped(2, np.linspace(0, 1, N + 1))), 1),
            (lambda N: s2(KnotSequence.clamped(2, np.linspace(0, 1, N + 1))), 2),
            (lambda N: s2(KnotSequence.clamped(3, np.linspace(0, 1, N + 1))), 2),
            (lambda N: uniform_nb_dqi(4, 2, nspans=N, spacing=1.0 / N), 3),
        ],
        ids=["midpoint-like", "three-term-quadratic", "three-term-cubic", "cubic-nb"],
    )
    def test_exp_integrand_order(self, maker, q):
        sizes = (8, 16, 32, 64)
        errs = []
        for N in sizes:
            rule = qi_to_quadrature(maker(N))
            errs.append(abs(rule.apply(np.exp) - (math.e - 1.0)))
        slope = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope >= q + 1 - 0.25
