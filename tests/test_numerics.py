import math
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from fluxsym import numerics
from fluxsym.cli import main
from fluxsym.model import Model
from fluxsym.numerics import (
    DEFAULT_SAMPLED_FNS, Field, GridSpec, MaterialModel, SolverError,
    TransformParams, compile_numeric, discrete_residual, export_csv,
    integral_weights, invariance_residual, material_residual,
    max_interior_residual, solve_pde, transform_field,
)
from fluxsym.parser import parse

GOLDEN = Path(__file__).parent / "golden"


def constant(value):
    return lambda r, t: np.full(
        np.broadcast_shapes(np.shape(r), np.shape(t)), float(value))


ZERO_GRAD = (("zero_gradient",), ("zero_gradient",))


def case_d_material(amplitude=0.5, diffusion=0.35):
    """Gradient-free family member with pure-scaling constants
    (a2, a4) = (1, 2): D constant, Gamma = amplitude/(2t + r^2)."""
    def gamma(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return amplitude / (2.0 * t + r * r) * np.ones(
            np.broadcast_shapes(r.shape, t.shape))
    return MaterialModel(D=constant(diffusion), Gamma=gamma, v=1.0)


CASE_D_A = {"a1": 0, "a2": 1, "a3": 0, "a4": 2, "a6": 0, "a8": -1}


# --- grid and material validation -------------------------------------------

def test_grid_nodes_are_built_once_and_read_only():
    grid = GridSpec(0.0, 1.0, 2.0, 8, 16)
    assert grid.r_nodes is grid.r_nodes
    assert grid.t_nodes is grid.t_nodes
    assert np.array_equal(grid.t_nodes, np.linspace(0.0, 2.0, 17))
    with pytest.raises(ValueError):
        grid.r_nodes[0] = 0.5
    with pytest.raises(ValueError):
        grid.t_nodes[:] = 0.0
    assert grid == GridSpec(0.0, 1.0, 2.0, 8, 16)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1.0, 3, 8)
    with pytest.raises(ValueError):
        GridSpec(0.5, 0.25, 1.0, 8, 8)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1.0, 8, 8, geometry=3)


def test_material_positivity_enforced():
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    bad = MaterialModel(D=constant(-1.0), Gamma=constant(0.0))
    with pytest.raises(SolverError):
        solve_pde(grid, bad, lambda r: np.ones_like(r), ZERO_GRAD)


def test_material_decomposition_checked():
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    good = MaterialModel(D=constant(1.0), Gamma=constant(0.5),
                         decomposition=(constant(2.0), constant(0.5),
                                        constant(0.5)))
    good.validate(grid)
    bad = MaterialModel(D=constant(1.0), Gamma=constant(0.5),
                        decomposition=(constant(2.0), constant(0.5),
                                       constant(0.25)))
    with pytest.raises(SolverError):
        bad.validate(grid)


def test_curvilinear_origin_needs_regularity():
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8, geometry=2)
    mat = MaterialModel(D=constant(1.0), Gamma=constant(0.0))
    with pytest.raises(SolverError):
        solve_pde(grid, mat, lambda r: np.ones_like(r),
                  (("dirichlet", 1.0), ("dirichlet", 1.0)))


def test_compile_numeric_matches_evaluate():
    model = Model()
    expr = parse("(a3 + a4*t)^(-1) * F(r*(a3 + a4*t)^(-a2/a4))", model.table)
    fn = compile_numeric(expr, params={"a2": 1, "a3": 1, "a4": 2},
                         fns=DEFAULT_SAMPLED_FNS)
    from fluxsym.kernel import evaluate
    got = fn(np.array([0.5, 1.0]), np.array([0.25, 0.5]))
    for r, t, val in zip((0.5, 1.0), (0.25, 0.5), got):
        direct = evaluate(expr, {"a2": 1, "a3": 1, "a4": 2, "r": r, "t": t},
                          {"F": lambda x: 1 / (1 + x * x)})
        assert val == pytest.approx(direct, rel=1e-12)


# --- solver ------------------------------------------------------------------

def test_uniform_medium_exponential_growth():
    # spatially uniform flux with constant production grows as exp(v Gamma t)
    grid = GridSpec(0.0, 1.0, 1.0, 8, 4096, geometry=1)
    mat = MaterialModel(D=constant(0.3), Gamma=constant(0.5), v=2.0)
    field = solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)
    want = math.exp(2.0 * 0.5 * 1.0)
    got = field.phi[-1]
    assert np.max(np.abs(got - want)) / want <= 1e-6


def test_manufactured_solution_convergence_order():
    v = 1.0
    mat = MaterialModel(
        D=constant(1.0),
        Gamma=lambda r, t: (1.0 / (v * (1.0 + np.asarray(t, float)))
                            + (math.pi / 2) ** 2) * np.ones(
                                np.broadcast_shapes(np.shape(r), np.shape(t))),
        v=v)
    exact = lambda r, t: (1.0 + t) * np.cos(math.pi * r / 2)
    errors = []
    for n in (32, 64, 128):
        grid = GridSpec(0.0, 1.0, 1.0, n, n)
        field = solve_pde(grid, mat, lambda r: exact(r, 0.0),
                          (("zero_gradient",), ("dirichlet", 0.0)))
        rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
        errors.append(np.max(np.abs(field.phi - exact(rr, tt))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_conservation_with_zero_production():
    grid = GridSpec(0.0, 1.0, 0.5, 48, 48, geometry=2)
    mat = MaterialModel(
        D=lambda r, t: 0.3 + 0.1 * np.asarray(r, float) * np.ones(
            np.broadcast_shapes(np.shape(r), np.shape(t))),
        Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.exp(-4 * r**2), ZERO_GRAD)
    w = integral_weights(grid)
    masses = field.phi @ w
    drift = np.max(np.abs(np.diff(masses))) / masses[0]
    assert drift <= 1e-10


def test_spherical_decay_is_monotone():
    # constant D, no production, absorbing outer boundary: the peak decays
    grid = GridSpec(0.0, 1.0, 0.5, 32, 64, geometry=2)
    mat = MaterialModel(D=constant(0.4), Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.cos(math.pi * r / 2),
                      (("zero_gradient",), ("dirichlet", 0.0)))
    peaks = np.max(field.phi, axis=1)
    assert np.all(np.diff(peaks) < 0)


def test_dirichlet_value_tracks_callable():
    grid = GridSpec(0.0, 1.0, 1.0, 16, 16)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.ones_like(r),
                      (("zero_gradient",), ("dirichlet", lambda t: 1.0 + t)))
    assert field.phi[-1, -1] == pytest.approx(2.0, abs=1e-12)


def _solve_step_by_step(grid, material, ic, bc):
    """The trapezoidal march with one banded matrix assembled and solved by
    scipy.linalg.solve_banded per step.  A Dirichlet value is a callable on
    the left edge and a number on the right one."""
    from scipy.linalg import solve_banded
    r = grid.r_nodes
    out = np.empty((grid.n_t + 1, r.size))
    out[0] = ic(r)
    dt = grid.dt
    lower, upper, gamma = numerics._stencil(
        grid, material, (np.arange(grid.n_t) + 0.5) * dt)
    c = 0.5 * material.v * dt
    ab = np.zeros((3, r.size))
    for k in range(grid.n_t):
        diag = -(lower[k] + upper[k]) + gamma[k]
        rhs = (out[k]
               + c * (diag * out[k]
                      + np.concatenate(([0.0], lower[k, 1:] * out[k][:-1]))
                      + np.concatenate((upper[k, :-1] * out[k][1:], [0.0]))))
        ab[0, 1:] = -c * upper[k, :-1]
        ab[1] = 1.0 - c * diag
        ab[2, :-1] = -c * lower[k, 1:]
        t_new = (k + 1) * dt
        if bc[0][0] == "dirichlet":
            ab[1, 0] = 1.0
            ab[0, 1] = 0.0
            rhs[0] = bc[0][1](t_new)
        if bc[1][0] == "dirichlet":
            ab[1, -1] = 1.0
            ab[2, -2] = 0.0
            rhs[-1] = bc[1][1]
        out[k + 1] = solve_banded((1, 1), ab, rhs)
    return out


DIRICHLET_BOTH = (("dirichlet", lambda t: 1.0 + math.sin(3.0 * t)),
                  ("dirichlet", 0.5))


@pytest.mark.parametrize("geometry, r0, bc", [
    (0, 0.0, ZERO_GRAD),
    (1, 0.0, ZERO_GRAD),
    (2, 0.0, ZERO_GRAD),
    (0, 0.0, DIRICHLET_BOTH),
    (1, 0.25, DIRICHLET_BOTH),
    (2, 0.5, DIRICHLET_BOTH),
    (2, 0.5, ZERO_GRAD),
])
def test_solver_matches_a_banded_solve_per_step(geometry, r0, bc):
    grid = GridSpec(r0, 1.5, 0.75, 20, 24, geometry=geometry)
    mat = MaterialModel(
        D=lambda r, t: 0.3 + 0.2 * np.asarray(r) * np.asarray(t) + 0.1 * np.asarray(r) ** 2,
        Gamma=lambda r, t: np.cos(np.asarray(r)) * np.exp(-np.asarray(t)) - 0.4,
        v=1.5)
    ic = lambda r: 1.0 + r * r
    got = solve_pde(grid, mat, ic, bc).phi
    want = _solve_step_by_step(grid, mat, ic, bc)
    # bit for bit, signed zeros included
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_non_finite_coefficient_names_its_step():
    # Gamma has a pole at the half step of step 3, (3 + 1/2) dt = 7/16
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    mat = MaterialModel(D=constant(0.5),
                        Gamma=lambda r, t: 1.0 / (np.asarray(t) - 7.0 / 16.0)
                        * np.ones_like(np.asarray(r)))
    with np.errstate(divide="ignore"):
        with pytest.raises(SolverError, match="non-finite coefficient at step 3$"):
            solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)


def test_singular_step_system_is_a_solver_error():
    # with c = v dt / 2 = 2^-34 and Gamma = 2^34 the diagonal is exactly 0,
    # and D at the smallest subnormal makes the off-diagonals underflow to 0
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    mat = MaterialModel(D=constant(5e-324), Gamma=constant(2.0 ** 34),
                        v=2.0 ** -30)
    with pytest.raises(SolverError, match="singular step system at step 0$"):
        solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)


def test_nan_boundary_value_names_its_time_level():
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    edge = lambda t: math.nan if t == 5 * grid.dt else 1.0
    with pytest.raises(SolverError, match="NaN detected at step 5$"):
        solve_pde(grid, mat, lambda r: np.ones_like(r),
                  (("dirichlet", edge), ("zero_gradient",)))


@pytest.mark.parametrize("v", [-1.0, 0.0, math.nan, math.inf])
def test_material_speed_must_be_positive_and_finite(v):
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0), v=v)
    with pytest.raises(SolverError, match="v must be positive and finite"):
        mat.validate(grid)


# --- material residuals -------------------------------------------------------

def test_material_residual_case_b_floor():
    model = Model()
    from fluxsym.cli import _case_materials
    a = {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 2.0, "a6": 0.0, "a8": -1.0}
    material, _ = _case_materials("B", a, 1.0, model)
    grid = GridSpec(0.0, 1.0, 1.0, 2048, 2048)
    res = material_residual(material, TransformParams(0.02, a), grid)
    assert res["res_D"] <= 1e-6
    assert res["res_Gamma"] <= 1e-6


def test_material_residual_constant_diffusion():
    grid = GridSpec(0.25, 1.0, 1.0, 64, 64)
    mat = MaterialModel(D=constant(0.7), Gamma=constant(0.0))
    locked = TransformParams(0.02, {"a2": 1, "a4": 2, "a6": 0, "a8": -1})
    res = material_residual(mat, locked, grid)
    assert res["res_D"] <= 1e-12
    skew = TransformParams(0.02, {"a2": 1, "a4": 3, "a6": 0, "a8": -1})
    res = material_residual(mat, skew, grid)
    # residual is exactly |2 a2 - a4| * D / max D
    assert res["res_D"] == pytest.approx(1.0, rel=1e-12)


# --- finite transformations ----------------------------------------------------

def test_transform_constraints_enforced():
    with pytest.raises(ValueError):
        TransformParams(0.02, {"a5": 1.0})
    with pytest.raises(ValueError):
        TransformParams(0.02, {"a2": 1.0, "a6": 0.0, "a8": 0.5})


def test_transform_identity_at_zero_parameter():
    grid = GridSpec(0.0, 1.0, 1.0, 16, 16)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.cos(r), ZERO_GRAD)
    out = transform_field(field, TransformParams(0.0, {"a2": 1, "a4": 2,
                                                       "a6": 0, "a8": -1}))
    assert np.allclose(out.phi, field.phi, atol=1e-12)


def test_time_translation_of_steady_field():
    grid = GridSpec(0.0, 1.0, 1.0, 16, 32)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    profile = np.cos(grid.r_nodes)
    steady = Field(grid=grid, material=mat,
                   phi=np.tile(profile, (grid.n_t + 1, 1)))
    out = transform_field(steady, TransformParams(0.1, {"a3": 1.0}))
    inside = out.valid
    assert np.allclose(out.phi[inside],
                       np.tile(profile, (grid.n_t + 1, 1))[inside],
                       atol=1e-10)


def test_scaling_matches_analytic_oracle():
    # interpolated transform of a sampled analytic field equals the field
    # evaluated at the mapped points
    grid = GridSpec(0.0, 1.0, 1.0, 64, 64)
    mat = MaterialModel(D=constant(1.0), Gamma=constant(0.0))
    exact = lambda r, t: (1.0 + t) * np.cos(math.pi * r / 2)
    rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
    field = Field(grid=grid, material=mat, phi=exact(rr, tt))
    p = TransformParams(0.05, {"a2": 1, "a4": 2, "a6": 0, "a8": -1})
    out = transform_field(field, p)
    r_src, t_src = p.map_inverse(rr, tt)
    oracle = exact(r_src, t_src)
    err = np.abs(out.phi - oracle)[out.valid]
    assert np.max(err) <= 1e-6


def test_transform_composition_group_property():
    grid = GridSpec(0.0, 1.0, 1.0, 48, 48)
    mat = MaterialModel(D=constant(1.0), Gamma=constant(0.0))
    exact = lambda r, t: np.exp(-2 * r * r) * (1.0 + 0.5 * t)
    rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
    field = Field(grid=grid, material=mat, phi=exact(rr, tt))
    a = {"a2": 1, "a4": 2, "a6": 0.5, "a8": -0.5}
    once = transform_field(transform_field(field, TransformParams(0.03, a)),
                           TransformParams(0.02, a))
    combined = transform_field(field, TransformParams(0.05, a))
    both = once.valid & combined.valid
    assert np.max(np.abs(once.phi[both] - combined.phi[both])) <= 1e-5


def test_transform_out_of_domain_errors():
    grid = GridSpec(0.0, 1.0, 1.0, 16, 16)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)
    with pytest.raises(SolverError):
        transform_field(field, TransformParams(1.0, {"a3": 1.0}))


def _transform_by_points(f, p):
    """transform_field evaluated point by point on the mapped meshgrid."""
    grid = f.grid
    spline = RectBivariateSpline(grid.t_nodes, grid.r_nodes, f.phi, kx=3, ky=3)
    rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
    r_src, t_src = p.map_inverse(rr, tt)
    inside = ((r_src >= grid.r0 - 1e-12) & (r_src <= grid.r1 + 1e-12)
              & (t_src >= -1e-12) & (t_src <= grid.t1 + 1e-12))
    phi = math.exp(p.eps * p.a["a6"]) * spline.ev(
        np.clip(t_src, 0.0, grid.t1), np.clip(r_src, grid.r0, grid.r1))
    return np.where(inside, phi, np.nan), inside


def test_transform_matches_pointwise_spline_evaluation():
    grid = GridSpec(0.25, 1.5, 1.0, 40, 32)
    mat = MaterialModel(D=constant(1.0), Gamma=constant(0.0))
    rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
    field = Field(grid=grid, material=mat,
                  phi=np.exp(-2 * rr * rr) * (1.0 + 0.5 * tt) + np.sin(3 * tt * rr))
    a = {"a1": 0.5, "a2": 1.0, "a3": 0.5, "a4": -2.0, "a6": 0.3, "a8": -0.7}
    for eps in (0.05, -0.05):
        p = TransformParams(eps, a)
        out = transform_field(field, p)
        want, inside = _transform_by_points(field, p)
        assert 0.0 < out.transform["clipped_fraction"] < 0.2
        assert np.array_equal(out.valid, inside)
        np.testing.assert_array_equal(out.phi, want)


def _residual_by_rows(f):
    """discrete_residual as one time row at a time."""
    grid, phi = f.grid, f.phi
    r, dr, n = grid.r_nodes, grid.dr, grid.geometry
    res = np.full_like(phi, np.nan)
    for k in range(1, grid.n_t):
        d = f.material.D(r, np.full_like(r, grid.t_nodes[k]))
        d_face = 0.5 * (d[1:] + d[:-1])
        rn = r[1:-1] ** n
        lo = (r[1:-1] - 0.5 * dr) ** n * d_face[:-1] / (rn * dr * dr)
        hi = (r[1:-1] + 0.5 * dr) ** n * d_face[1:] / (rn * dr * dr)
        gamma = f.material.Gamma(r, np.full_like(r, grid.t_nodes[k]))
        diffusion = (hi * (phi[k, 2:] - phi[k, 1:-1])
                     - lo * (phi[k, 1:-1] - phi[k, :-2]))
        res[k, 1:-1] = ((phi[k + 1, 1:-1] - phi[k - 1, 1:-1]) / (2 * grid.dt * f.material.v)
                        - diffusion - gamma[1:-1] * phi[k, 1:-1])
    return res


@pytest.mark.parametrize("geometry, r0, bc", [
    (0, 0.0, ZERO_GRAD),
    (2, 0.0, ZERO_GRAD),
    (1, 0.25, (("zero_gradient",), ("dirichlet", lambda t: 1.0 + t))),
])
def test_discrete_residual_matches_a_row_by_row_loop(geometry, r0, bc):
    grid = GridSpec(r0, 1.0, 0.5, 24, 20, geometry=geometry)
    mat = MaterialModel(
        D=lambda r, t: 0.3 + 0.2 * np.asarray(r) * np.asarray(t) + 0.1 * np.asarray(r) ** 2,
        Gamma=lambda r, t: np.cos(np.asarray(r)) * np.exp(-np.asarray(t)), v=1.5)
    field = solve_pde(grid, mat, lambda r: 1.0 + r * r, bc)
    np.testing.assert_array_equal(discrete_residual(field), _residual_by_rows(field))


def test_export_csv_matches_the_row_format(tmp_path):
    grid = GridSpec(-0.0, 3.0, 1.0e17, 4, 4)
    mat = MaterialModel(D=constant(1.0), Gamma=constant(0.0))
    values = np.array([[-1.5, 1e-7, 1e17, -0.0, 0.1],
                       [np.nan, -1e-7, 2.0 / 3.0, 1e-320, -1e17]] * 2
                      + [[5e-324, 1.0, -2.5e-17, 123456789.125, 1e300]])
    path = tmp_path / "field.csv"
    for phi in (values, np.arange(25).reshape(5, 5) - 12):
        export_csv(Field(grid=grid, material=mat, phi=phi), path)
        want = "r,t,phi\n" + "".join(
            f"{float(r)!r},{float(t)!r},{float(phi[k, i])!r}\n"
            for k, t in enumerate(grid.t_nodes) for i, r in enumerate(grid.r_nodes))
        assert path.read_bytes() == want.encode("utf-8")


def test_numerics_reports_match_the_golden_files(tmp_path, monkeypatch, capsys):
    # the numerics reports and the CSV are pinned byte for byte; a change
    # of these files is a change of the program's results
    assert main(["verify", "--case", "D", "--invariance", "--eps", "0.02",
                 "--refine", "3", "--json"]) == 0
    assert (capsys.readouterr().out.encode("utf-8")
            == (GOLDEN / "verify_case_d_invariance.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "2", "--D", "1/2 + r*r/4",
                 "--Gamma", "exp(-r*t)", "--initial", "1 + r*r",
                 "--bc-left", "zero_gradient", "--bc-right", "dirichlet:2",
                 "--nr", "16", "--nt", "12", "--out", "simulate_small.json",
                 "--csv", "simulate_small.csv"]) == 0
    for name in ("simulate_small.json", "simulate_small.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


# --- invariance ----------------------------------------------------------------

def test_invariance_solves_each_level_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve_pde(*args, **kwargs)

    monkeypatch.setattr(numerics, "solve_pde", counted)
    grid = GridSpec(0.5, 1.5, 1.0, 16, 16)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    rep = invariance_residual(grid, case_d_material(), TransformParams(0.02, CASE_D_A),
                              ic, ZERO_GRAD, refinements=3)
    assert [(g.n_r, g.n_t) for g in calls] == [(16, 16), (32, 32), (64, 64)]
    # the eps/2 control reads the first level's solve
    field = solve_pde(grid, case_d_material(), ic, ZERO_GRAD)
    assert rep.eps_half_residual == max_interior_residual(
        transform_field(field, TransformParams(0.01, CASE_D_A)))


def test_invariance_case_d_refinement():
    grid = GridSpec(0.5, 1.5, 1.0, 40, 40)
    mat = case_d_material()
    p = TransformParams(0.02, CASE_D_A)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    rep = invariance_residual(grid, mat, p, ic, ZERO_GRAD, refinements=3)
    for ratio in rep.ratios:
        assert 2.8 <= ratio <= 5.2
    assert rep.clipped_fraction < 0.2


def test_invariance_zero_parameter_equals_base_residual():
    grid = GridSpec(0.5, 1.5, 1.0, 32, 32)
    mat = case_d_material()
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    field = solve_pde(grid, mat, ic, ZERO_GRAD)
    out = transform_field(field, TransformParams(0.0, CASE_D_A))
    assert max_interior_residual(out) == pytest.approx(
        max_interior_residual(field), rel=1e-9)


def test_invariance_mutated_material_plateaus():
    # perturbing the family exponent breaks the symmetry: the residual sits
    # at an O(epsilon) level instead of vanishing with the mesh
    amplitude, C = 0.5, 0.35
    def gamma_mut(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return amplitude * (2.0 * t + r * r) ** -0.9 * np.ones(
            np.broadcast_shapes(r.shape, t.shape))
    mat = MaterialModel(D=constant(C), Gamma=gamma_mut, v=1.0)
    p = TransformParams(0.02, CASE_D_A)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    residuals = []
    for n in (80, 160):
        field = solve_pde(GridSpec(0.5, 1.5, 1.0, n, n), mat, ic, ZERO_GRAD)
        residuals.append(max_interior_residual(transform_field(field, p)))
    assert residuals[1] / residuals[0] > 0.8   # plateau, not h^2 decay
    assert residuals[1] > 1e-3                 # at the epsilon scale


def test_export_csv(tmp_path):
    grid = GridSpec(0.0, 1.0, 1.0, 4, 4)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)
    path = tmp_path / "field.csv"
    export_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,t,phi"
    assert len(lines) == 1 + 5 * 5
    r, t, phi = lines[1].split(",")
    assert float(r) == 0.0 and float(t) == 0.0 and float(phi) == 1.0


def test_invariance_case_b_function_valued_materials():
    # a function-valued D family also shows the O(h^2) decay once the group
    # parameter is small enough that the map parametrization error is
    # subdominant; the mutated control separates from it
    from fluxsym.cli import _case_materials
    model = Model()
    a = {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 2.0, "a6": 0.0, "a8": -1.0}
    mat, _ = _case_materials("B", a, 1.0, model)
    p = TransformParams(0.005, a)
    ic = lambda r: 1.0 + np.cos(math.pi * r)
    rep = invariance_residual(GridSpec(0.0, 1.0, 1.0, 32, 32), mat, p, ic,
                              ZERO_GRAD, refinements=3)
    for ratio in rep.ratios:
        assert 2.8 <= ratio <= 5.2

    def gamma_mut(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        scale = (1.0 + 2.0 * t) ** -0.9
        xi = r * (1.0 + 2.0 * t) ** -0.5
        return scale / (1.0 + xi * xi) * np.ones(
            np.broadcast_shapes(r.shape, t.shape))

    mutated = MaterialModel(D=mat.D, Gamma=gamma_mut, v=1.0)
    field = solve_pde(GridSpec(0.0, 1.0, 1.0, 128, 128), mutated, ic,
                      ZERO_GRAD)
    mut_res = max_interior_residual(transform_field(field, p))
    assert mut_res > 2 * rep.residuals[-1]
