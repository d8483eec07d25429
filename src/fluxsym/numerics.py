"""Finite-difference solver and numerical invariance verification.

Solves (1/v) phi_t = (1/r^n) d/dr[r^n D(r,t) phi_r] + Gamma(r,t) phi on a
uniform space-time grid in planar/cylindrical/spherical 1D geometry, with
a conservative flux discretization (face-averaged D, face radii) and
implicit trapezoidal stepping with coefficients frozen at the half step
(second order, unconditionally stable).

The verification layer checks the material conditions by finite
differences, applies the finite translation/scaling maps to a computed
solution by bicubic interpolation, and measures the discrete residual of
the transformed field: for symmetric materials it vanishes at the
discretization rate O(h^2), while a perturbed material plateaus at an
O(epsilon) level.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .kernel import Rat, as_expr, evaluate, free_symbols, subexpressions

if TYPE_CHECKING:
    import numpy as np


class SolverError(Exception):
    pass


class DiffusionError(SolverError):
    """D is not positive and finite where it is evaluated."""


_REFINEMENT_FACTOR = 2        # a refined grid has twice the cells per axis
_RESIDUAL_MAX_SAMPLES = 256   # nodes per axis the material residual samples
_MAX_CLIPPED_FRACTION = 0.2   # share of a transformed grid allowed outside
_INTERIOR_MARGIN = 0.25       # share of the domain trimmed from each side


# --------------------------------------------------------------------------
# Expression compilation (vectorized numeric callables)
# --------------------------------------------------------------------------

def compile_numeric(expr, args=("r", "t"), params=None, fns=None):
    """Compile a kernel expression into a numpy-vectorized callable of `args`.

    params binds the remaining symbols to numbers; fns binds function
    symbols to vectorized callables (exp is built in).  The callable
    evaluates the tree with `kernel.evaluate` on float arrays.  An unbound
    name or a constant past the float range is a SolverError here.
    """
    import numpy as np

    expr = as_expr(expr)
    params = {k: float(v) for k, v in (params or {}).items()}
    fns = {**(fns or {}), "exp": np.exp}
    unbound = sorted(free_symbols(expr).difference(args, params, fns))
    if unbound:
        raise SolverError(
            f"unbound symbol {unbound[0]!r} in compiled expression")
    for node in subexpressions(expr):
        if type(node) is Rat:
            try:
                float(node.value)
            except OverflowError:
                from decimal import MAX_EMAX, Context
                # the top 128 bits of each part times a power of 2: 6 digits
                # at a cost that does not grow with the constant
                p, q = node.value.numerator, node.value.denominator
                ps, qs = (max(k.bit_length() - 128, 0) for k in (p, q))
                c = Context(prec=40, Emax=MAX_EMAX)
                x = c.multiply(c.divide(p >> ps, q >> qs), c.power(2, ps - qs))
                c.prec = 6      # normalize rounds to 6 digits, drops zeros
                raise SolverError(f"constant {c.normalize(x):.6g} is outside "
                                  "the float range") from None

    def array(v):
        return np.asarray(v, dtype=float)

    def compiled(*values):
        point = {**dict(zip(args, values)), **params}
        # a pole or an overflow yields inf or nan without a warning; the
        # callers' finiteness checks report it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = evaluate(expr, point, fns, value=array, power=np.power)
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    return compiled


# --------------------------------------------------------------------------
# Grid, material, field
# --------------------------------------------------------------------------

class GridSpec:
    """A uniform grid on [r0, r1] x [0, t1]."""
    __slots__ = ("r0", "r1", "t1", "n_r", "n_t", "geometry", "_r_nodes", "_t_nodes")

    def __init__(self, r0: float, r1: float, t1: float, n_r: int, n_t: int,
                 geometry: int = 0):
        if geometry not in (0, 1, 2):
            raise ValueError("geometry index must be 0, 1 or 2")
        if n_r < 4 or n_t < 4:
            raise ValueError("need at least 4 cells in r and t")
        if (not all(map(math.isfinite, (r0, r1, t1)))
                or r0 < 0 or r1 <= r0 or t1 <= 0):
            raise ValueError("bad domain bounds")
        import numpy as np

        self.r0, self.r1, self.t1, self.n_r, self.n_t = r0, r1, t1, n_r, n_t
        self.geometry = geometry
        # built once and shared by every caller, hence read-only
        self._r_nodes = np.linspace(r0, r1, n_r + 1)
        self._t_nodes = np.linspace(0.0, t1, n_t + 1)
        self._r_nodes.flags.writeable = self._t_nodes.flags.writeable = False

    @property
    def r_nodes(self):
        return self._r_nodes

    @property
    def t_nodes(self):
        return self._t_nodes

    @property
    def dr(self):
        return (self.r1 - self.r0) / self.n_r

    @property
    def dt(self):
        return self.t1 / self.n_t

    def refined(self) -> "GridSpec":
        return GridSpec(self.r0, self.r1, self.t1, self.n_r * _REFINEMENT_FACTOR,
                        self.n_t * _REFINEMENT_FACTOR, self.geometry)


class MaterialModel(NamedTuple):
    """D(r,t), Gamma(r,t) and the neutron speed v.

    D and Gamma are vectorized callables (see `compile_numeric`).
    """
    D: object
    Gamma: object
    v: float = 1.0


def _check_diffusion(d):
    """D must be positive and finite wherever it is evaluated: in `_stencil`
    (the solver and the discrete residual) and in the material check."""
    import numpy as np

    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DiffusionError("D must be positive and finite on the grid")


class Field:
    """phi on the (n_t+1) x (n_r+1) space-time grid (time-major).  NaN alone
    marks the clipped nodes of a transformed field, and `clipped_fraction`
    is their share of the grid."""
    __slots__ = ("grid", "material", "phi", "clipped_fraction")

    def __init__(self, grid: GridSpec, material: MaterialModel, phi: np.ndarray,
                 clipped_fraction: float | None = None):
        expect = (grid.n_t + 1, grid.n_r + 1)
        if phi.shape != expect:
            raise SolverError(f"field shape {phi.shape} != grid {expect}")
        self.grid, self.material, self.phi = grid, material, phi
        self.clipped_fraction = clipped_fraction


class TransformParams:
    """One finite element exp(eps*chi) of the translation/scaling family,
    chi = (a1 + a2 r) d/dr + (a3 + a4 t) d/dt + a6 phi d/phi (a5 = 0); w is
    not mapped, so a7 and a8 do not enter and only a1-a4 and a6 are kept.
    Each coordinate flows along its affine component c0 + c1 x, to
    (x + c0/c1) e^(eps*c1) - c0/c1 (x + eps*c0 when c1 = 0): phi to
    e^(eps*a6) phi.  The neutron speed is held fixed under the map.
    """
    __slots__ = ("eps", "a")

    def __init__(self, eps: float, a: dict):
        self.eps = eps
        self.a = {k: float(a.get(k, 0.0)) for k in ("a1", "a2", "a3", "a4", "a6")}

    def map_inverse(self, r, t):
        import numpy as np

        def back(x, k0, k1):
            # the flow along c0 + c1 x over -eps is x e^(-eps c1) plus c0 times
            # (e^(-eps c1) - 1)/c1, by expm1 so that a small c1 loses no digits
            c0, c1 = self.a[k0], self.a[k1]
            scale = _map_factor(f"e^(-eps*{k1})", -self.eps * c1)
            lag = math.expm1(-self.eps * c1) / c1 if c1 else -self.eps
            return np.asarray(x) * scale + c0 * lag

        return back(r, "a1", "a2"), back(t, "a3", "a4")


def _map_factor(name: str, x: float) -> float:
    """e^x, the finite map's factor `name`.  One that overflows (and so
    would expm1(x)) or underflows to 0, which would make a transformed field
    of zeros, is a SolverError."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise SolverError(
            f"the finite map's factor {name} = e^({x:g}) is past the float "
            f"range")
    return value


# --------------------------------------------------------------------------
# PDE solve
# --------------------------------------------------------------------------

def _stencil(grid: GridSpec, material: MaterialModel, times):
    """Stencil weights (lo, hi) and Gamma of the spatial operator
    (1/r^n) d/dr[r^n D phi_r] + Gamma phi, one row per entry of `times`.

    D and Gamma are evaluated once over the broadcast (times x r) grid.  D
    is checked where it is evaluated here, positive and finite, and averaged
    onto the cell faces.  Each weight is r_face^n D_face divided by dr times
    the node's `integral_weights` volume, so the stencil conserves the
    integral those weights define; lo[:, 0] and hi[:, -1] are 0."""
    import numpy as np

    n = grid.geometry
    dr = grid.dr
    r = grid.r_nodes
    t = np.asarray(times, dtype=float)[:, None]
    shape = (t.shape[0], r.size)
    d = np.broadcast_to(material.D(r[None, :], t), shape)
    _check_diffusion(d)
    d_face = 0.5 * (d[:, 1:] + d[:, :-1])
    lo = np.zeros(shape)
    hi = np.zeros(shape)
    # a weight past the float range is left to its callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        scale = integral_weights(grid) * dr
        np.multiply((r[1:] - 0.5 * dr) ** n, d_face, out=lo[:, 1:])
        lo[:, 1:] /= scale[1:]
        np.multiply((r[:-1] + 0.5 * dr) ** n, d_face, out=hi[:, :-1])
        hi[:, :-1] /= scale[:-1]
    if grid.r0 == 0.0 and n > 0:
        # the r = 0 regularity row, written out: the rule above gives the
        # same value but not the same bits at n = 2, which the spherical
        # r0 = 0 golden tests/golden/simulate_small.* pins
        hi[:, 0] = 2.0 * (n + 1) * d_face[:, 0] / (dr * dr)
    return lo, hi, np.broadcast_to(material.Gamma(r[None, :], t), shape)


def _bc_value(spec, t: float) -> float:
    value = spec[1]
    return float(value(t)) if callable(value) else float(value)


def solve_pde(grid: GridSpec, material: MaterialModel, ic, bc) -> Field:
    """March the diffusion equation with implicit trapezoidal steps.

    ic: callable phi(r) giving the node values.  bc: (left, right), each
    ("dirichlet", value-or-callable) or ("zero_gradient",).  Dirichlet rows
    are pinned to the boundary value at the new time level.

    The tridiagonal bands of every step are built and checked before the
    loop; each step then forms its explicit side in place and hands the
    system to LAPACK `gtsv`, which overwrites that step's bands with its
    factors and the explicit side with the solution.
    """
    import numpy as np
    from scipy.linalg.lapack import dgtsv

    if grid.r0 == 0.0 and grid.geometry > 0 and bc[0][0] != "zero_gradient":
        raise SolverError(
            "r = 0 in curvilinear geometry needs the zero-gradient "
            "regularity condition on the left edge")
    if not 0.0 < material.v < math.inf:
        raise SolverError(f"v must be positive and finite, got {material.v!r}")
    r = grid.r_nodes
    m = r.size
    phi0 = np.asarray(ic(r), dtype=float)
    if phi0.shape != r.shape or not np.all(np.isfinite(phi0)):
        raise SolverError("initial profile must be finite node values")
    out = np.empty((grid.n_t + 1, m))
    out[0] = phi0
    dt = grid.dt
    # coefficients frozen at the half steps (k + 1/2) dt
    lower, upper, gamma = _stencil(grid, material, (np.arange(grid.n_t) + 0.5) * dt)
    c = 0.5 * material.v * dt
    # (I - v dt/2 A) phi_new = (I + v dt/2 A) phi_old  (+ Dirichlet rows)
    with np.errstate(over="ignore", invalid="ignore"):    # checked below
        diag = -(lower + upper) + gamma
        sub = -c * lower[:, 1:]
        main = 1.0 - c * diag
        sup = -c * upper[:, :-1]
    left, right = (spec[0] == "dirichlet" for spec in bc)
    if left:
        main[:, 0] = 1.0
        sup[:, 0] = 0.0
    if right:
        main[:, -1] = 1.0
        sub[:, -1] = 0.0
    finite = (np.isfinite(sub).all(axis=1) & np.isfinite(main).all(axis=1)
              & np.isfinite(sup).all(axis=1))
    if not finite.all():
        raise SolverError(
            f"non-finite coefficient at step {np.argmin(finite)}")
    # a step scales phi's reaction part by (1 + c Gamma)/(1 - c Gamma),
    # which flips its sign once |c Gamma| >= 1
    with np.errstate(over="ignore"):
        flips = c * np.maximum(gamma.max(axis=1), -gamma.min(axis=1)) >= 1.0
    if flips.any():
        raise SolverError(
            f"|v dt/2 * Gamma| >= 1 at step {np.argmax(flips)}, so the step "
            "flips the sign of phi: refine the time grid")
    # the explicit side old + c*(diag*old + lower term + upper term) is
    # summed in that order straight into out[k + 1]; each neighbour term is
    # a full row holding 0.0 at the edge it lacks, so an edge node adds +0.0
    # too and a -0.0 sum there turns +0.0, as in a zero-padded sum
    from_lower = np.zeros(m)
    from_upper = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):    # checked per step
        for k in range(grid.n_t):
            old, new = out[k], out[k + 1]
            np.multiply(diag[k], old, out=new)
            np.multiply(lower[k, 1:], old[:-1], out=from_lower[1:])
            new += from_lower
            np.multiply(upper[k, :-1], old[1:], out=from_upper[:-1])
            new += from_upper
            new *= c
            new += old
            t_new = (k + 1) * dt
            if left:
                new[0] = _bc_value(bc[0], t_new)
            if right:
                new[-1] = _bc_value(bc[1], t_new)
            if dgtsv(sub[k], main[k], sup[k], new, 1, 1, 1, 1)[-1] > 0:
                raise SolverError(f"singular step system at step {k}")
            if not np.isfinite(new).all():
                raise SolverError(f"NaN detected at step {k + 1}")
    return Field(grid=grid, material=material, phi=out)


def integral_weights(grid: GridSpec) -> np.ndarray:
    """Trapezoidal weights of the conserved integral of phi r^n dr: the cell
    volumes r_i^n dr, halved at the edges, that `_stencil` divides by (times
    dr).  At r = 0 in curvilinear geometry the first is the exact volume
    (dr/2)^(n+1)/(n+1), for which `_stencil` writes out its row.  A volume
    outside the normal float range is a SolverError."""
    import numpy as np

    n = grid.geometry
    r = grid.r_nodes
    w = np.full_like(r, grid.dr)
    w[0] = w[-1] = 0.5 * grid.dr
    with np.errstate(over="ignore"):
        w *= r ** n
    if grid.r0 == 0.0 and n > 0:
        try:
            w[0] = (0.5 * grid.dr) ** (n + 1) / (n + 1)
        except OverflowError:
            w[0] = math.inf
    domain = (f"the grid on [{grid.r0:g}, {grid.r1:g}] in geometry {n} "
              "has a cell volume")
    if w.min() < np.finfo(float).tiny:     # underflowed: dividing by it overflows
        raise SolverError(
            f"{domain} {w.min():.3g} below the smallest normal float")
    if w.max() > np.finfo(float).max:
        raise SolverError(f"{domain} above the largest float")
    return w


# --------------------------------------------------------------------------
# Material-condition residuals (finite differences)
# --------------------------------------------------------------------------

def material_residual(material: MaterialModel, conditions,
                      params: TransformParams, grid: GridSpec) -> dict:
    """Max-norm residuals res_<func> of the first-order material conditions
    c_r f_r + c_t f_t = growth * f (`characteristics.QuasiLinearPDE`s), with
    c_r, c_t and growth compiled with params.a and the derivatives by
    central differences at half-grid steps.

    The grid fixes the difference steps; the max is sampled on at most
    _RESIDUAL_MAX_SAMPLES nodes per axis so very fine steps stay cheap.  The
    materials are evaluated on broadcast (t x r) axes, so their t-only
    factors cost one value per time.  A material or residual that is not
    finite at the sampled points, or a D that is not positive there, is a
    SolverError naming the material."""
    import numpy as np

    r = grid.r_nodes[1:-1]
    t = grid.t_nodes[1:-1]
    r = r[:: max(1, len(r) // _RESIDUAL_MAX_SAMPLES)][None, :]
    t = t[:: max(1, len(t) // _RESIDUAL_MAX_SAMPLES)][:, None]
    hr = 0.5 * grid.dr
    ht = 0.5 * grid.dt

    def residual(condition):
        name = condition.func
        f = getattr(material, name)
        c_r, c_t, growth = (
            compile_numeric(e, params=params.a)(r, t)
            for e in (condition.c_r, condition.c_t, condition.growth))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f_r = (f(r + hr, t) - f(r - hr, t)) / (2 * hr)
            f_t = (f(r, t + ht) - f(r, t - ht)) / (2 * ht)
            base = f(r, t)
            worst = np.max(np.abs(c_r * f_r + c_t * f_t - growth * base))
        scale = np.max(np.abs(base))
        if not (np.isfinite(scale) and np.isfinite(worst)):
            raise SolverError(
                f"{name} or its residual is not finite at the sampled points")
        if name == "D":
            _check_diffusion(base)
        return float(worst / (scale if scale > 0 else 1.0))

    return {f"res_{c.func}": residual(c) for c in conditions}


# --------------------------------------------------------------------------
# Finite transformations of computed fields
# --------------------------------------------------------------------------

def transform_field(f: Field, p: TransformParams) -> Field:
    """phi_new(r, t) = e^(eps a6) phi(inverse map of (r, t)) by bicubic
    interpolation on the source grid; points mapping outside the computed
    domain are NaN and masked; the clipped fraction is reported (error above
    _MAX_CLIPPED_FRACTION)."""
    import numpy as np
    from scipy.interpolate import RectBivariateSpline

    grid = f.grid
    spline = RectBivariateSpline(grid.t_nodes, grid.r_nodes, f.phi, kx=3, ky=3)
    # the inverse map is separable and increasing along each axis, so the
    # mapped points form a tensor grid the spline evaluates axis by axis
    r_src, t_src = p.map_inverse(grid.r_nodes, grid.t_nodes)
    inside = (((t_src >= -1e-12) & (t_src <= grid.t1 + 1e-12))[:, None]
              & ((r_src >= grid.r0 - 1e-12) & (r_src <= grid.r1 + 1e-12))[None, :])
    clipped = 1.0 - float(np.count_nonzero(inside)) / inside.size
    if clipped > _MAX_CLIPPED_FRACTION:
        raise SolverError(
            f"{clipped:.1%} of the transformed grid falls outside the "
            f"computed domain (threshold {_MAX_CLIPPED_FRACTION:.0%})")
    amp = _map_factor("e^(eps*a6)", p.eps * p.a["a6"])
    phi_new = amp * spline(np.clip(t_src, 0.0, grid.t1),
                           np.clip(r_src, grid.r0, grid.r1), grid=True)
    phi_new = np.where(inside, phi_new, np.nan)
    return Field(grid=grid, material=f.material, phi=phi_new,
                 clipped_fraction=clipped)


def discrete_residual(f: Field, stencil=None) -> np.ndarray:
    """Pointwise discrete PDE residual on interior nodes (NaN on the border):
    centered time difference minus conservative diffusion minus production.
    A transformed field is NaN at its clipped nodes, and the NaN spreads
    through the five-point stencil.  `stencil` is the `_stencil` rows at
    `f.grid.t_nodes[1:-1]`, built here when not given."""
    import numpy as np

    grid = f.grid
    phi = f.phi
    lo, hi, gamma = (_stencil(grid, f.material, grid.t_nodes[1:-1])
                     if stencil is None else stencil)
    mid = phi[1:-1, 1:-1]
    # (phi_t - diffusion) - gamma*mid with diffusion = hi*(up - mid) -
    # lo*(mid - down), each operation in place in that order
    diffusion = phi[1:-1, 2:] - mid
    diffusion *= hi[:, 1:-1]
    diffusion -= lo[:, 1:-1] * (mid - phi[1:-1, :-2])
    res = np.full_like(phi, np.nan)
    inner = res[1:-1, 1:-1]
    np.subtract(phi[2:, 1:-1], phi[:-2, 1:-1], out=inner)
    inner /= 2 * grid.dt * f.material.v
    inner -= diffusion
    inner -= gamma[:, 1:-1] * mid
    return res


def _residual_mask(f: Field) -> np.ndarray:
    """Where the discrete residual of `f` is defined: the finite nodes whose
    centered stencil (the 4 neighbours) is finite too.  NaN alone marks a
    transformed field's clipped nodes; a solved field is finite throughout."""
    import numpy as np

    valid = np.isfinite(f.phi)
    ok = valid.copy()
    ok[1:-1, 1:-1] &= (valid[:-2, 1:-1] & valid[2:, 1:-1]
                       & valid[1:-1, :-2] & valid[1:-1, 2:])
    return ok


def max_interior_residual(f: Field, stencil=None) -> float:
    """Scaled max-norm discrete residual over the strict interior of the
    space-time domain.

    An _INTERIOR_MARGIN fraction of the domain is trimmed from every side
    so boundary and startup layers do not mask the convergence behaviour.
    The window is defined by node values (not index counts), so refined
    grids measure the same physical region.  NaN alone marks a transformed
    field's clipped nodes: only the nodes their NaN reaches through the
    stencil (`_residual_mask`) are left out, and any other non-finite
    residual (a pole of Gamma on a node) is a SolverError.  D was checked
    where the stencil evaluated it.
    """
    import numpy as np

    grid = f.grid
    res = discrete_residual(f, stencil=stencil)
    t = grid.t_nodes
    r = grid.r_nodes
    t_lo, t_hi = _INTERIOR_MARGIN * grid.t1, (1 - _INTERIOR_MARGIN) * grid.t1
    r_lo = grid.r0 + _INTERIOR_MARGIN * (grid.r1 - grid.r0)
    r_hi = grid.r1 - _INTERIOR_MARGIN * (grid.r1 - grid.r0)
    tiny = 1e-12
    rows = (t >= t_lo - tiny) & (t <= t_hi + tiny)
    cols = (r >= r_lo - tiny) & (r <= r_hi + tiny)
    window = np.ix_(rows, cols)
    vals = res[window]
    keep = _residual_mask(f)[window]
    bad = keep & ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SolverError(f"non-finite discrete residual at "
                          f"t = {t[rows][i]:g}, r = {r[cols][j]:g}")
    vals = vals[keep]
    if vals.size == 0:
        raise SolverError("no interior points survive the overlap mask")
    scale = np.nanmax(np.abs(f.phi))
    return float(np.max(np.abs(vals)) / (scale if scale > 0 else 1.0))


class InvarianceReport(NamedTuple):
    levels: tuple            # (n_r, n_t) per refinement
    residuals: tuple         # transformed-field residual per level
    ratios: tuple            # residual[i] / residual[i+1]
    base_residuals: tuple    # untransformed discrete residual per level
    eps_half_residual: float
    clipped_fraction: float


def invariance_residual(grid: GridSpec, material: MaterialModel,
                        p: TransformParams, ic, bc,
                        refinements: int = 3) -> InvarianceReport:
    """Solve, transform, and measure the discrete residual of the transformed
    field across joint mesh refinements, plus the eps -> eps/2 control.

    Each level's interior stencil is built once and shared by its base
    field, its transformed field and (on the first grid) the eps/2 control."""
    if p.eps == 0:
        raise SolverError("the invariance study needs a nonzero eps: at "
                          "eps = 0 the map is the identity")
    levels, residuals, base_residuals = [], [], []
    clipped = 0.0
    f0 = solve_pde(grid, material, ic, bc)
    stencil0 = _stencil(grid, material, grid.t_nodes[1:-1])
    g, f, stencil = grid, f0, stencil0
    for level in range(refinements):
        if level:
            g = g.refined()
            f = solve_pde(g, material, ic, bc)
            stencil = _stencil(g, material, g.t_nodes[1:-1])
        tf = transform_field(f, p)
        levels.append((g.n_r, g.n_t))
        residuals.append(max_interior_residual(tf, stencil=stencil))
        base_residuals.append(max_interior_residual(f, stencil=stencil))
        clipped = tf.clipped_fraction
    half = TransformParams(p.eps / 2, p.a)
    eps_half = max_interior_residual(transform_field(f0, half), stencil=stencil0)
    ratios = tuple(residuals[i] / residuals[i + 1]
                   for i in range(len(residuals) - 1))
    return InvarianceReport(
        levels=tuple(levels), residuals=tuple(residuals), ratios=ratios,
        base_residuals=tuple(base_residuals), eps_half_residual=eps_half,
        clipped_fraction=clipped)


# --------------------------------------------------------------------------
# Field export
# --------------------------------------------------------------------------

def export_csv(f: Field, path):
    """CSV rows r,t,phi in row-major (time outer) order."""
    r_text = [f"{r!r}," for r in f.grid.r_nodes.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,t,phi\n")
        for t, row in zip(f.grid.t_nodes.tolist(), f.phi.astype(float, copy=False)):
            t_text = f"{t!r},"
            fh.write("".join([f"{r}{t_text}{v!r}\n"
                              for r, v in zip(r_text, row.tolist())]))
