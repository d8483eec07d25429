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
from dataclasses import dataclass

import numpy as np

from .kernel import Add, Call, Mul, Pow, Rat, Sym, as_expr


class SolverError(Exception):
    pass


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
    symbols to vectorized callables (exp is built in).
    """
    expr = as_expr(expr)
    params = {k: float(v) for k, v in (params or {}).items()}
    fns = dict(fns or {})

    def build(e):
        if isinstance(e, Rat):
            v = float(e.value)
            return lambda env: v
        if isinstance(e, Sym):
            name = e.name
            if name in params:
                v = params[name]
                return lambda env: v
            if name in args:
                return lambda env: env[name]
            raise SolverError(f"unbound symbol {name!r} in compiled expression")
        if isinstance(e, Add):
            parts = [build(t) for t in e.terms]
            return lambda env: sum(p(env) for p in parts)
        if isinstance(e, Mul):
            parts = [build(f) for f in e.factors]
            def mul(env):
                out = parts[0](env)
                for p in parts[1:]:
                    out = out * p(env)
                return out
            return mul
        if isinstance(e, Pow):
            base = build(e.base)
            expo = build(e.exponent)
            return lambda env: np.power(base(env), expo(env))
        if isinstance(e, Call):
            if e.func == "exp":
                inner = build(e.args[0])
                return lambda env: np.exp(inner(env))
            if e.func not in fns:
                raise SolverError(f"no callable bound for {e.func!r}")
            fn = fns[e.func]
            inner = [build(a) for a in e.args]
            return lambda env: fn(*(p(env) for p in inner))
        raise TypeError(type(e))

    core = build(expr)

    def compiled(*values):
        env = dict(zip(args, (np.asarray(v, dtype=float) for v in values)))
        out = core(env)
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()

    return compiled


def sampled_functions(amplitude: float = 1.0) -> dict:
    """Vectorized samples of the arbitrary functions and their derivative
    symbols: G(x) = exp(-x^2) and F(x) = amplitude/(1 + x^2)."""
    return {
        "G": lambda x: np.exp(-x * x),
        "G'": lambda x: -2 * x * np.exp(-x * x),
        "F": lambda x: amplitude / (1.0 + x * x),
        "F'": lambda x: -2 * amplitude * x / (1.0 + x * x) ** 2,
    }


DEFAULT_SAMPLED_FNS = sampled_functions()


# --------------------------------------------------------------------------
# Grid, material, field
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    r0: float
    r1: float
    t1: float
    n_r: int
    n_t: int
    geometry: int = 0

    def __post_init__(self):
        if self.geometry not in (0, 1, 2):
            raise ValueError("geometry index must be 0, 1 or 2")
        if self.n_r < 4 or self.n_t < 4:
            raise ValueError("need at least 4 cells in r and t")
        if self.r0 < 0 or self.r1 <= self.r0 or self.t1 <= 0:
            raise ValueError("bad domain bounds")
        # built once and shared by every caller, hence read-only
        for name, nodes in (("_r_nodes", np.linspace(self.r0, self.r1, self.n_r + 1)),
                            ("_t_nodes", np.linspace(0.0, self.t1, self.n_t + 1))):
            nodes.flags.writeable = False
            object.__setattr__(self, name, nodes)

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


@dataclass(frozen=True)
class MaterialModel:
    """D(r,t), Gamma(r,t) and the neutron speed v.

    D and Gamma are vectorized callables (see `compile_numeric`).  An optional (nu_bar, Sigma_f, Sigma_a) decomposition must
    reproduce Gamma to 1e-12.
    """
    D: object
    Gamma: object
    v: float = 1.0
    decomposition: tuple | None = None   # (nu_bar(r,t), Sigma_f(r,t), Sigma_a(r,t))

    def validate(self, grid: GridSpec):
        if not 0.0 < self.v < math.inf:
            raise SolverError(f"v must be positive and finite, got {self.v!r}")
        rr, tt = grid.r_nodes[None, :], grid.t_nodes[:, None]
        d = self.D(rr, tt)
        if not np.all(np.isfinite(d)) or np.any(d <= 0):
            raise SolverError("D must be positive and finite on the grid")
        if self.decomposition is not None:
            nu, sf, sa = self.decomposition
            delta = np.max(np.abs(self.Gamma(rr, tt) -
                                  (nu(rr, tt) * sf(rr, tt) - sa(rr, tt))))
            if delta > 1e-12:
                raise SolverError(
                    f"decomposition does not reproduce Gamma (max {delta:.2e})")


@dataclass(frozen=True)
class Field:
    """phi on the (n_t+1) x (n_r+1) space-time grid (time-major)."""
    grid: GridSpec
    material: MaterialModel
    phi: np.ndarray
    valid: np.ndarray | None = None   # mask for interpolated fields
    transform: dict | None = None

    def __post_init__(self):
        expect = (self.grid.n_t + 1, self.grid.n_r + 1)
        if self.phi.shape != expect:
            raise SolverError(f"field shape {self.phi.shape} != grid {expect}")


@dataclass(frozen=True)
class TransformParams:
    """One finite element of the translation/scaling family.

    r -> eps*a1 + e^(eps*a2) r,  t -> eps*a3 + e^(eps*a4) t,
    phi -> e^(eps*a6) phi,       w -> e^(eps*a8) w,
    with the determining constraints a5 = a7 = 0, a8 = a6 - a2 enforced.
    The neutron speed is held fixed under the map.
    """
    eps: float
    a: dict

    def __post_init__(self):
        a = {f"a{i}": float(self.a.get(f"a{i}", 0.0)) for i in range(1, 9)}
        object.__setattr__(self, "a", a)
        if abs(a["a5"]) > 1e-14 or abs(a["a7"]) > 1e-14:
            raise ValueError("a5 and a7 must vanish (determining constraints)")
        if abs(a["a8"] - (a["a6"] - a["a2"])) > 1e-12:
            raise ValueError("a8 must equal a6 - a2 (determining constraint)")

    def map_inverse(self, r, t):
        a = self.a
        return (math.exp(-self.eps * a["a2"]) * (np.asarray(r) - self.eps * a["a1"]),
                math.exp(-self.eps * a["a4"]) * (np.asarray(t) - self.eps * a["a3"]))


# --------------------------------------------------------------------------
# PDE solve
# --------------------------------------------------------------------------

def _face_weights(grid: GridSpec, d_face_lo, d_face_hi):
    """Conservative diffusion stencil weights (lo, hi) per node along the last
    axis, including the half-cell boundary rows and the r = 0 regularity
    limit.  lo[..., 0] and hi[..., -1] are 0."""
    n = grid.geometry
    r = grid.r_nodes
    dr = grid.dr
    r_lo = r - 0.5 * dr
    r_hi = r + 0.5 * dr
    lo = np.zeros_like(d_face_lo)
    hi = np.zeros_like(d_face_hi)
    interior = slice(1, -1)
    rn = np.where(r[interior] > 0, r[interior] ** n, 1.0)
    lo[..., interior] = (r_lo[interior] ** n) * d_face_lo[..., interior] / (rn * dr * dr)
    hi[..., interior] = (r_hi[interior] ** n) * d_face_hi[..., interior] / (rn * dr * dr)
    # half-cell boundary rows (used only under zero-gradient conditions)
    if grid.r0 == 0.0 and n > 0:
        # volume-integrated limit over [0, dr/2]
        hi[..., 0] = 2.0 * (n + 1) * d_face_hi[..., 0] / (dr * dr)
    else:
        r0n = r[0] ** n if r[0] > 0 else 1.0
        hi[..., 0] = (r_hi[0] ** n) * d_face_hi[..., 0] / (r0n * dr * (0.5 * dr))
    rNn = r[-1] ** n if r[-1] > 0 else 1.0
    lo[..., -1] = (r_lo[-1] ** n) * d_face_lo[..., -1] / (rNn * dr * (0.5 * dr))
    return lo, hi


def _stencil(grid: GridSpec, material: MaterialModel, times):
    """Stencil weights (lo, hi) and Gamma of the spatial operator
    (1/r^n) d/dr[r^n D phi_r] + Gamma phi, one row per entry of `times`.

    D and Gamma are evaluated once over the broadcast (times x r) grid and D
    is averaged onto the cell faces (the edge faces take the node value)."""
    r = grid.r_nodes[None, :]
    t = np.asarray(times, dtype=float)[:, None]
    shape = (t.shape[0], r.shape[1])
    d = np.broadcast_to(material.D(r, t), shape)
    d_face = 0.5 * (d[:, 1:] + d[:, :-1])
    lo, hi = _face_weights(grid, np.concatenate((d[:, :1], d_face), axis=1),
                           np.concatenate((d_face, d[:, -1:]), axis=1))
    return lo, hi, np.broadcast_to(material.Gamma(r, t), shape)


def _bc_value(spec, t: float) -> float:
    value = spec[1]
    return float(value(t)) if callable(value) else float(value)


def solve_pde(grid: GridSpec, material: MaterialModel, ic, bc) -> Field:
    """March the diffusion equation with implicit trapezoidal steps.

    ic: callable phi(r) or array of node values.  bc: (left, right), each
    ("dirichlet", value-or-callable) or ("zero_gradient",).  Dirichlet rows
    are pinned to the boundary value at the new time level.

    The tridiagonal bands of every step are built and checked before the
    loop; each step then forms its explicit side in place and hands the
    system to LAPACK `gtsv`, which overwrites that step's bands with its
    factors and the explicit side with the solution.
    """
    from scipy.linalg.lapack import dgtsv

    if grid.r0 == 0.0 and grid.geometry > 0 and bc[0][0] != "zero_gradient":
        raise SolverError(
            "r = 0 in curvilinear geometry needs the zero-gradient "
            "regularity condition on the left edge")
    material.validate(grid)
    r = grid.r_nodes
    m = r.size
    phi0 = np.asarray(ic(r) if callable(ic) else ic, dtype=float)
    if phi0.shape != r.shape or not np.all(np.isfinite(phi0)):
        raise SolverError("initial profile must be finite node values")
    out = np.empty((grid.n_t + 1, m))
    out[0] = phi0
    dt = grid.dt
    # coefficients frozen at the half steps (k + 1/2) dt
    lower, upper, gamma = _stencil(grid, material, (np.arange(grid.n_t) + 0.5) * dt)
    c = 0.5 * material.v * dt
    # (I - v dt/2 A) phi_new = (I + v dt/2 A) phi_old  (+ Dirichlet rows)
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
    # the explicit side old + c*(diag*old + lower term + upper term) is
    # summed in that order straight into out[k + 1]; each neighbour term is
    # a full row holding 0.0 at the edge it lacks, so an edge node adds +0.0
    # too and a -0.0 sum there turns +0.0, as in a zero-padded sum
    from_lower = np.zeros(m)
    from_upper = np.zeros(m)
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
    """Trapezoidal weights of the conserved integral of phi r^n dr."""
    r = grid.r_nodes
    w = np.full_like(r, grid.dr)
    w[0] = w[-1] = 0.5 * grid.dr
    if grid.r0 == 0.0 and grid.geometry > 0:
        w = w * np.where(r > 0, r ** grid.geometry, 1.0)
        w[0] = (0.5 * grid.dr) ** (grid.geometry + 1) / (grid.geometry + 1)
    else:
        w = w * r ** grid.geometry
    return w


# --------------------------------------------------------------------------
# Material-condition residuals (finite differences)
# --------------------------------------------------------------------------

def material_residual(material: MaterialModel, params: TransformParams,
                      grid: GridSpec) -> dict:
    """Max-norm residuals of the two first-order material conditions, with
    derivatives by central differences at half-grid steps.

    The grid fixes the difference steps; the max is sampled on at most
    _RESIDUAL_MAX_SAMPLES nodes per axis so very fine steps stay cheap."""
    a = params.a
    r = grid.r_nodes[1:-1]
    t = grid.t_nodes[1:-1]
    r = r[:: max(1, len(r) // _RESIDUAL_MAX_SAMPLES)]
    t = t[:: max(1, len(t) // _RESIDUAL_MAX_SAMPLES)]
    rr, tt = np.meshgrid(r, t)
    hr = 0.5 * grid.dr
    ht = 0.5 * grid.dt

    def residual(f, weight):
        f_r = (f(rr + hr, tt) - f(rr - hr, tt)) / (2 * hr)
        f_t = (f(rr, tt + ht) - f(rr, tt - ht)) / (2 * ht)
        base = f(rr, tt)
        res = ((a["a1"] + a["a2"] * rr) * f_r
               + (a["a3"] + a["a4"] * tt) * f_t
               + weight * base)
        scale = np.max(np.abs(base))
        return float(np.max(np.abs(res)) / (scale if scale > 0 else 1.0))

    return {
        "res_D": residual(material.D, -(2 * a["a2"] - a["a4"])),
        "res_Gamma": residual(material.Gamma, a["a4"]),
    }


# --------------------------------------------------------------------------
# Finite transformations of computed fields
# --------------------------------------------------------------------------

def transform_field(f: Field, p: TransformParams) -> Field:
    """phi_new(r, t) = e^(eps a6) phi(inverse map of (r, t)) by bicubic
    interpolation on the source grid; points mapping outside the computed
    domain are masked and the clipped fraction is reported (error above
    _MAX_CLIPPED_FRACTION)."""
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
    amp = math.exp(p.eps * p.a["a6"])
    phi_new = amp * spline(np.clip(t_src, 0.0, grid.t1),
                           np.clip(r_src, grid.r0, grid.r1), grid=True)
    phi_new = np.where(inside, phi_new, np.nan)
    return Field(grid=grid, material=f.material, phi=phi_new,
                 valid=inside, transform={"eps": p.eps, "a": dict(p.a),
                                          "clipped_fraction": clipped})


def discrete_residual(f: Field) -> np.ndarray:
    """Pointwise discrete PDE residual on interior nodes: centered time
    difference minus conservative diffusion minus production."""
    grid = f.grid
    phi = f.phi
    lo, hi, gamma = _stencil(grid, f.material, grid.t_nodes[1:-1])
    mid = phi[1:-1, 1:-1]
    diffusion = (hi[:, 1:-1] * (phi[1:-1, 2:] - mid)
                 - lo[:, 1:-1] * (mid - phi[1:-1, :-2]))
    res = np.full_like(phi, np.nan)
    res[1:-1, 1:-1] = ((phi[2:, 1:-1] - phi[:-2, 1:-1]) / (2 * grid.dt * f.material.v)
                       - diffusion - gamma[:, 1:-1] * mid)
    if f.valid is not None:
        # centered stencils touch the 8 neighbours: require them all valid
        ok = f.valid.copy()
        ok[1:-1, 1:-1] &= (f.valid[:-2, 1:-1] & f.valid[2:, 1:-1]
                           & f.valid[1:-1, :-2] & f.valid[1:-1, 2:])
        res = np.where(ok, res, np.nan)
    return res


def max_interior_residual(f: Field) -> float:
    """Scaled max-norm discrete residual over the strict interior of the
    space-time domain.

    An _INTERIOR_MARGIN fraction of the domain is trimmed from every side
    so boundary and startup layers do not mask the convergence behaviour.
    The window is defined by node values (not index counts), so refined
    grids measure the same physical region.
    """
    grid = f.grid
    res = discrete_residual(f)
    t = grid.t_nodes
    r = grid.r_nodes
    t_lo, t_hi = _INTERIOR_MARGIN * grid.t1, (1 - _INTERIOR_MARGIN) * grid.t1
    r_lo = grid.r0 + _INTERIOR_MARGIN * (grid.r1 - grid.r0)
    r_hi = grid.r1 - _INTERIOR_MARGIN * (grid.r1 - grid.r0)
    tiny = 1e-12
    rows = (t >= t_lo - tiny) & (t <= t_hi + tiny)
    cols = (r >= r_lo - tiny) & (r <= r_hi + tiny)
    vals = res[np.ix_(rows, cols)]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise SolverError("no interior points survive the overlap mask")
    scale = np.nanmax(np.abs(f.phi))
    return float(np.max(np.abs(vals)) / (scale if scale > 0 else 1.0))


@dataclass(frozen=True)
class InvarianceReport:
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
    field across joint mesh refinements, plus the eps -> eps/2 control."""
    levels, residuals, base_residuals = [], [], []
    clipped = 0.0
    f0 = solve_pde(grid, material, ic, bc)
    g = grid
    for _ in range(refinements):
        f = f0 if g is grid else solve_pde(g, material, ic, bc)
        tf = transform_field(f, p)
        levels.append((g.n_r, g.n_t))
        residuals.append(max_interior_residual(tf))
        base_residuals.append(max_interior_residual(f))
        clipped = tf.transform["clipped_fraction"]
        g = g.refined()
    half = TransformParams(p.eps / 2, p.a)
    eps_half = max_interior_residual(transform_field(f0, half))
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
