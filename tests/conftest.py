"""Shared fixtures: cached model contexts and spectral decompositions.

Building a score context assembles the elliptic operator and its
factorization, and dense eigendecompositions are the most expensive objects
in the suite, so both are cached once per session and shared read-only
across test modules.
"""

import pytest

from ellinfo.fixtures import build_context, psi_fixture
from ellinfo.spectral import eigendecompose, fisher_refinement


@pytest.fixture(scope="session")
def ctx_cache():
    """Session factory: ctx_cache(name, resolution, theta_bump=None)."""
    cache = {}

    def get(name, resolution, theta_bump=None):
        key = (name, resolution, repr(theta_bump))
        if key not in cache:
            cache[key] = build_context(name, resolution, theta_bump=theta_bump)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def decomp_cache(ctx_cache):
    """Session factory: decomp_cache(name, resolution, subspace='interior')."""
    cache = {}

    def get(name, resolution, subspace="interior"):
        key = (name, resolution, subspace)
        if key not in cache:
            ctx = ctx_cache(name, resolution)
            cache[key] = eigendecompose(ctx, subspace=subspace)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fisher_sweep():
    """Session factory: fisher_sweep(name, psi_kind, resolutions) runs
    ``fisher_refinement`` on fresh contexts, built one grid at a time."""
    def sweep(name, kind, resolutions):
        contexts = (build_context(name, res) for res in resolutions)
        return fisher_refinement((ctx, psi_fixture(ctx, kind)) for ctx in contexts)

    return sweep
