"""Shipped configurations and functional fixtures."""

import math

import numpy as np
import pytest

from ellinfo import transport
from ellinfo.fixtures import (FIXTURE_NAMES, PSI_KINDS, SHIPPED_PSI_FIXTURES,
                              build_context, exact_solution, fixture_data,
                              fixture_domain, in_range_fixture, psi_fixture)
from ellinfo.grids import DomainKind, ScalarField, build_grid, norm_l2


class TestDomains:
    """Name-to-domain resolution."""

    def test_square_names_map_to_unit_square(self):
        for name in ("square_ex1", "saddle"):
            spec = fixture_domain(name, 17)
            assert spec.kind is DomainKind.SQUARE
            assert spec.resolution == (17, 17)

    def test_disk_broadcasts_angular_resolution(self):
        spec = fixture_domain("disk_ex2", 20)
        assert spec.kind is DomainKind.DISK
        assert spec.resolution == (20, 40)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture_domain("cube_ex3", 17)
        grid = build_grid(fixture_domain("square_ex1", 9))
        with pytest.raises(ValueError, match="unknown fixture"):
            exact_solution("cube_ex3", grid)
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture_data("cube_ex3", grid)


class TestProblemData:
    """Sources, boundary data, and closed-form base solutions."""

    def test_square_data(self):
        grid = build_grid(fixture_domain("square_ex1", 17))
        f, g = fixture_data("square_ex1", grid)
        np.testing.assert_array_equal(f.values, 2.0)
        np.testing.assert_allclose(
            g.values, (grid.x**2 + grid.y**2 - 1.0) / 2.0, atol=1e-15)

    def test_disk_data(self):
        grid = build_grid(fixture_domain("disk_ex2", 12))
        f, g = fixture_data("disk_ex2", grid)
        np.testing.assert_array_equal(f.values, 2.0)
        np.testing.assert_array_equal(g.values[grid.boundary_ids], 0.0)
        u = exact_solution("disk_ex2", grid)
        r2 = grid.x**2 + grid.y**2
        np.testing.assert_allclose(u.values, (r2 - 1.0) / 2.0, atol=1e-15)

    def test_saddle_data(self):
        grid = build_grid(fixture_domain("saddle", 17))
        f, g = fixture_data("saddle", grid)
        np.testing.assert_array_equal(f.values, 0.0)
        np.testing.assert_allclose(g.values, grid.x**2 - grid.y**2, atol=1e-15)
        np.testing.assert_allclose(
            exact_solution("saddle", grid).values, g.values, atol=1e-15)


class TestBuildContext:
    """One-call assembly of a solved base configuration."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_base_solution_matches_closed_form(self, name, ctx_cache):
        ctx = ctx_cache(name, 17)
        expected = exact_solution(name, ctx.grid)
        assert norm_l2(ScalarField(ctx.grid, ctx.u.values - expected.values)) <= 1e-10

    def test_theta_bump_true_uses_shipped_default(self):
        ctx = build_context("square_ex1", 33, theta_bump=True)
        assert ctx.theta.values.max() == pytest.approx(1.0 + 0.15 * math.exp(-1), rel=1e-3)
        np.testing.assert_array_equal(
            ctx.theta.values[ctx.grid.boundary_ids], 1.0)

    def test_custom_theta_bump_triple(self):
        ctx = build_context("square_ex1", 33, theta_bump=((1.5, 1.5), 0.2, 0.05))
        assert ctx.theta.values.max() == pytest.approx(1.0 + 0.05 * math.exp(-1), rel=1e-6)


class TestPsiFixtures:
    """The functional dispatcher and its kinds."""

    def test_bump_defaults_per_geometry(self, ctx_cache):
        sq = ctx_cache("square_ex1", 25)
        psi = psi_fixture(sq, "bump")
        assert psi.values.max() == pytest.approx(math.exp(-1), rel=1e-6)
        assert psi.values.min() == 0.0

    def test_constant_kind(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        np.testing.assert_array_equal(psi_fixture(ctx, "constant").values, 1.0)
        np.testing.assert_array_equal(
            psi_fixture(ctx, "constant", value=3.0).values, 3.0)

    def test_unknown_kind_rejected(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        with pytest.raises(ValueError, match="unknown psi"):
            psi_fixture(ctx, "ridge")

    def test_quadrant_bump_is_disk_only(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        with pytest.raises(ValueError, match="disk"):
            psi_fixture(ctx, "quadrant_bump")

    def test_quadrant_bump_misses_opposite_sector(self, ctx_cache):
        ctx = ctx_cache("disk_ex2", 33)
        psi = psi_fixture(ctx, "quadrant_bump")
        grid = ctx.grid
        opposite = (grid.x > 0.0) & (grid.y < 0.0)
        np.testing.assert_array_equal(psi.values[opposite], 0.0)
        assert psi.values.max() > 0.0

    def test_clearance_violation_propagates(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        with pytest.raises(ValueError, match="clearance"):
            psi_fixture(ctx, "bump", center=(1.05, 1.5), radius=0.2)


class TestInRangeCertificate:
    """The manufactured in-range functional carries its own witness."""

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_psi_is_exact_adjoint_image(self, name, ctx_cache):
        ctx = ctx_cache(name, 25)
        fix = in_range_fixture(ctx)
        recon = ctx.apply_adjoint_exact(fix.source)
        np.testing.assert_allclose(recon.values, fix.psi.values,
                                   atol=1e-12 * np.abs(fix.psi.values).max())

    def test_disk_support_avoids_origin(self, ctx_cache):
        """The support radius that range_verdict measures from psi (it
        truncates the ray integrals at half of it) stays off the origin: 0.017
        at 25^2 and 0.109 at 96^2, the reproduce-thm38 disk grid."""
        for res, radius in ((25, 0.0), (96, 0.05)):
            fix = in_range_fixture(ctx_cache("disk_ex2", res))
            assert transport._support_min_radius(fix.psi) > radius

    def test_shipped_table_is_classified(self):
        kinds = {kind for _, kind, _ in SHIPPED_PSI_FIXTURES}
        assert kinds <= set(PSI_KINDS)
        labels = {label for _, _, label in SHIPPED_PSI_FIXTURES}
        assert labels == {"out_of_range", "in_range"}
        names = {name for name, _, _ in SHIPPED_PSI_FIXTURES}
        assert names <= set(FIXTURE_NAMES)
