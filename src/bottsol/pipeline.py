"""The one place the chain is built: structure constants -> Levi-Civita ->
Bott (-> perturbed) -> curvature -> Ricci -> soliton system.

`build` runs the chain for any algebra and is uncached, so one-shot custom
specs do not stay in memory.  `stage` is the cached catalog entry point; the
stages of one catalog algebra share its cached spec and Levi-Civita connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import algebra, connection, curvature, registry, soliton
from .algebra import LieAlgebraSpec, eta_signs  # noqa: F401  callers read pipeline.eta_signs
from .connection import Connection
from .curvature import BilinearForm, CurvatureTensor
from .soliton import SolitonSystem


@dataclass(frozen=True)
class Stage:
    spec: LieAlgebraSpec
    levi_civita: Connection
    conn: Connection  # the (perturbed) Bott connection the remaining stages are built on
    riemann: CurvatureTensor
    ricci: BilinearForm
    sym_ricci: BilinearForm
    lie_derivative: BilinearForm
    system: SolitonSystem


def build(spec: LieAlgebraSpec, dist_name: str, perturbed: bool = False,
          lc: Connection | None = None) -> Stage:
    """Build every derived object of one algebra for one distribution.

    `lc` is the Levi-Civita connection of `spec` when the caller already has
    it; otherwise it is computed here.
    """
    if lc is None:
        lc = connection.levi_civita(spec)
    dist = connection.DISTRIBUTIONS[dist_name]
    conn = connection.bott(spec, lc, dist)
    if perturbed:
        conn = connection.perturb(conn, dist)
    curv = curvature.riemann(spec, conn)
    rho = curvature.ricci(curv)
    rho_sym = curvature.symmetrize(rho)
    lie = soliton.lie_derivative_form(conn, soliton.soliton_vector())
    system = soliton.build_system(spec, rho_sym, lie, dist_name, perturbed)
    return Stage(spec, lc, conn, curv, rho, rho_sym, lie, system)


@lru_cache(maxsize=None)
def _catalog_algebra(group: str, eta_sign: int | None) -> tuple:
    """(spec, Levi-Civita connection) of a catalog group: neither depends on
    the distribution or the perturbation, so the six stages of one algebra
    share them."""
    spec = algebra.catalog(group, eta_sign=eta_sign)
    return spec, connection.levi_civita(spec)


@lru_cache(maxsize=None)
def _catalog_stage(group: str, dist_name: str, perturbed: bool, eta_sign: int | None) -> Stage:
    spec, lc = _catalog_algebra(group, eta_sign)
    return build(spec, dist_name, perturbed, lc)


def stage(group: str, dist_name: str, perturbed: bool = False, eta_sign: int | None = None) -> Stage:
    """Cached `build` of a catalog group; every call form shares one cache entry."""
    return _catalog_stage(group, dist_name, bool(perturbed), eta_sign)


def _cache_clear() -> None:
    """Empty the stage cache, the per-algebra cache behind it, the code
    objects of the row evaluators generated for the stages' systems, the
    sample plans and the parsed stored expressions, so the next run starts
    as a fresh process does."""
    _catalog_stage.cache_clear()
    _catalog_algebra.cache_clear()
    soliton._code.cache_clear()
    soliton._plans.clear()
    registry.parsed.cache_clear()


stage.cache_clear = _cache_clear
stage.cache_info = _catalog_stage.cache_info
