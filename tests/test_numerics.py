import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from fluxsym import numerics
from fluxsym.characteristics import (
    CASE_CONSTRAINTS, enumerate_cases, material_condition, sampled_functions,
)
from fluxsym.cli import main
from fluxsym.kernel import Call, EvaluationError, Pow, Rat, Sym, evaluate
from fluxsym.model import Model
from fluxsym.numerics import (
    Field, GridSpec, MaterialModel, SolverError, TransformParams,
    compile_numeric, discrete_residual, export_csv, integral_weights,
    invariance_residual, material_residual, max_interior_residual,
    solve_pde, transform_field,
)
from fluxsym.parser import parse

from conftest import random_expression

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


CASE_D_A = {"a1": 0, "a2": 1, "a3": 0, "a4": 2, "a6": 0}
# the two first-order material conditions, as `verify` checks them
CONDITIONS = tuple(material_condition(Model(), func) for func in ("D", "Gamma"))


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


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1.0, 3, 8)
    with pytest.raises(ValueError):
        GridSpec(0.5, 0.25, 1.0, 8, 8)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1.0, 8, 8, geometry=3)


@pytest.mark.parametrize("bounds", [
    (0.0, 1.0, math.inf), (0.0, math.nan, 1.0), (math.nan, 1.0, 1.0),
    (0.0, math.inf, 1.0), (0.0, 1.0, math.nan),
])
def test_grid_rejects_non_finite_bounds(bounds):
    # checked before the nodes are built, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^bad domain bounds$"):
            GridSpec(*bounds, 8, 8)


def test_material_positivity_enforced():
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    bad = MaterialModel(D=constant(-1.0), Gamma=constant(0.0))
    with pytest.raises(SolverError):
        solve_pde(grid, bad, lambda r: np.ones_like(r), ZERO_GRAD)


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
                         fns=sampled_functions())
    got = fn(np.array([0.5, 1.0]), np.array([0.25, 0.5]))
    for r, t, val in zip((0.5, 1.0), (0.25, 0.5), got):
        direct = evaluate(expr, {"a2": 1, "a3": 1, "a4": 2, "r": r, "t": t},
                          {"F": lambda x: 1 / (1 + x * x)})
        assert val == pytest.approx(direct, rel=1e-12)
    # random trees with G and F, their reciprocals and their square roots:
    # where the float evaluation fails (a pole, a negative base) the
    # compiled value is not finite
    rng = random.Random(31)
    fns = sampled_functions()
    r = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    failed = 0
    for _ in range(300):
        e = random_expression(rng, ("r", "a1"), depth=3, funcs=("G", "F"))
        for tree in (e, Pow(e, Rat(-1)), Pow(e, Rat(Fraction(1, 2)))):
            fn = compile_numeric(tree, args=("r",), params={"a1": 0.5}, fns=fns)
            for x, val in zip(r, fn(r)):
                try:
                    want = evaluate(tree, {"r": x, "a1": 0.5}, fns)
                except EvaluationError:
                    failed += 1
                    assert not math.isfinite(val)
                else:
                    assert val == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert failed


def test_compile_numeric_rejects_an_unbound_name_when_compiling():
    table = Model().table
    with pytest.raises(SolverError, match="'a1'"):
        compile_numeric(parse("a1*r", table))
    with pytest.raises(SolverError, match="'H'"):
        compile_numeric(Call("H", (Sym("r"),)), fns=sampled_functions())


@pytest.mark.parametrize("text, constant", [
    ("10^400", "1e+400"), ("r - 3*10^400/7", "-4.28571e+399"),
    ("exp(2^2000*t)", "1.14813e+602"), ("10^1000000", "1e+1000000")])
def test_compile_numeric_rejects_a_constant_past_the_float_range(text,
                                                                 constant):
    # a constant with no finite float fails when compiling, not in the solve
    table = Model().table
    with pytest.raises(SolverError, match=rf"^constant {re.escape(constant)} "
                                          "is outside the float range$"):
        compile_numeric(parse(text, table))
    # one that underflows is 0.0
    assert compile_numeric(parse("r + 10^-400", table))(2.0, 0.0) == 2.0


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
    # c D / dr^2 = 2^62 swamps the identity, so each row of the step matrix
    # is c times a row of the zero-gradient Laplacian, in powers of 2: the
    # rows sum to exactly 0 and elimination meets an exactly zero pivot
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    mat = MaterialModel(D=constant(2.0 ** 60), Gamma=constant(0.0))
    with pytest.raises(SolverError, match="singular step system at step 0$"):
        solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)


def test_a_step_that_flips_the_sign_of_phi_names_the_step():
    # c = v dt/2 = 1/16: Gamma = 100 t first reaches 16 at the half step
    # t = 3/16 of step 1, and -16 flips the sign as well
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    for gamma, step in ((lambda r, t: 100.0 * t + 0.0 * r, 1),
                        (constant(-16.0), 0)):
        mat = MaterialModel(D=constant(0.5), Gamma=gamma)
        with pytest.raises(SolverError, match=rf"^\|v dt/2 \* Gamma\| >= 1 "
                                              rf"at step {step}, so the step"):
            solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)


@pytest.mark.parametrize("gamma", [16.0 * (1 - 2.0 ** -20),
                                   -16.0 * (1 - 2.0 ** -20)])
def test_a_step_just_inside_the_bound_keeps_the_sign_of_phi(gamma):
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(gamma))
    # the first step scales phi by about 2^21, or by about 2^-21: after
    # that, rounding in the decaying field may change its sign
    field = solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)
    assert np.all(field.phi[1] > 0)


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
        solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)


def test_a_diffusion_negative_only_at_a_half_step_is_refused():
    # (64t - 1)^2 - 1/100 is at least 0.99 on every node t = k/32 and -0.01
    # at the first half step t = 1/64, where the solver evaluates it
    grid = GridSpec(0.0, 1.0, 1.0, 8, 32)
    assert grid.dt == 1 / 32
    d = lambda r, t: ((64.0 * np.asarray(t) - 1.0) ** 2 - 0.01) * np.ones(
        np.broadcast_shapes(np.shape(r), np.shape(t)))
    assert np.all(d(grid.r_nodes[None, :], grid.t_nodes[:, None]) > 0.9)
    mat = MaterialModel(D=d, Gamma=constant(0.0))
    with pytest.raises(SolverError,
                       match="^D must be positive and finite on the grid$"):
        solve_pde(grid, mat, lambda r: np.ones_like(r), ZERO_GRAD)


@pytest.mark.parametrize("zero_at", [0.0, 1.0], ids=["t=0", "t=t1"])
def test_a_diffusion_zero_only_on_an_end_row_solves(zero_at):
    # D = |t - zero_at| vanishes on the t = 0 or the t = t1 row, which no
    # stencil evaluates: neither the solver's half steps nor the residual's
    # interior rows
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)
    d = lambda r, t: np.abs(np.asarray(t, float) - zero_at) * np.ones(
        np.broadcast_shapes(np.shape(r), np.shape(t)))
    field = solve_pde(grid, MaterialModel(D=d, Gamma=constant(0.0)),
                      lambda r: np.cos(r), ZERO_GRAD)
    assert np.all(np.isfinite(field.phi))
    assert math.isfinite(max_interior_residual(field))


# --- material residuals -------------------------------------------------------

def test_material_residual_case_b_floor():
    from fluxsym.cli import _case_materials
    a = {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 2.0, "a6": 0.0}
    material = _case_materials(enumerate_cases(Model(), ("B",))["B"], a, 1.0)
    grid = GridSpec(0.0, 1.0, 1.0, 2048, 2048)
    res = material_residual(material, CONDITIONS, TransformParams(0.02, a),
                            grid)
    assert res["res_D"] <= 1e-6
    assert res["res_Gamma"] <= 1e-6


def test_material_residual_constant_diffusion():
    grid = GridSpec(0.25, 1.0, 1.0, 64, 64)
    mat = MaterialModel(D=constant(0.7), Gamma=constant(0.0))
    locked = TransformParams(0.02, {"a2": 1, "a4": 2, "a6": 0})
    res = material_residual(mat, CONDITIONS, locked, grid)
    assert res["res_D"] <= 1e-12
    skew = TransformParams(0.02, {"a2": 1, "a4": 3, "a6": 0})
    res = material_residual(mat, CONDITIONS, skew, grid)
    # residual is exactly |2 a2 - a4| * D / max D
    assert res["res_D"] == pytest.approx(1.0, rel=1e-12)


def _material_residual_on_a_meshgrid(material, params, grid):
    """material_residual with the materials evaluated on full meshgrids."""
    a = params.a
    r = grid.r_nodes[1:-1]
    t = grid.t_nodes[1:-1]
    r = r[:: max(1, len(r) // 256)]
    t = t[:: max(1, len(t) // 256)]
    rr, tt = np.meshgrid(r, t)
    hr, ht = 0.5 * grid.dr, 0.5 * grid.dt

    def residual(f, weight):
        f_r = (f(rr + hr, tt) - f(rr - hr, tt)) / (2 * hr)
        f_t = (f(rr, tt + ht) - f(rr, tt - ht)) / (2 * ht)
        base = f(rr, tt)
        res = ((a["a1"] + a["a2"] * rr) * f_r
               + (a["a3"] + a["a4"] * tt) * f_t
               + weight * base)
        scale = np.max(np.abs(base))
        return float(np.max(np.abs(res)) / (scale if scale > 0 else 1.0))

    return {"res_D": residual(material.D, -(2 * a["a2"] - a["a4"])),
            "res_Gamma": residual(material.Gamma, a["a4"])}


@pytest.mark.parametrize("case", ["A", "B", "C", "D", "E", "F", "closed form"])
def test_material_residual_on_broadcast_axes_matches_a_meshgrid(case):
    # 600 x 520 cells: both axes are subsampled to at most 256 nodes
    from fluxsym.cli import _case_materials
    grid = GridSpec(0.5, 1.5, 1.0, 600, 520)
    if case == "closed form":
        a = dict(CASE_D_A)
        material = case_d_material()
    else:
        a = {"a1": 0.3, "a2": 1.0, "a3": 0.5, "a4": 1.5, "a6": 0.1}
        if "a1 = 0" in CASE_CONSTRAINTS[case]:
            a["a1"] = 0.0
        material = _case_materials(
            enumerate_cases(Model(), (case,))[case], a, 0.7)
    params = TransformParams(0.02, a)
    assert (material_residual(material, CONDITIONS, params, grid)
            == _material_residual_on_a_meshgrid(material, params, grid))


@pytest.mark.parametrize("name", ["D", "Gamma"])
def test_material_residual_rejects_a_non_finite_material(name):
    # 2t - 1/2 changes sign inside the domain: the power of a negative base
    # is nan, and a nan residual must not read as a pass
    def pole(r, t):
        t = np.asarray(t, float)
        return (2.0 * t - 0.5) ** -0.5 * np.ones(
            np.broadcast_shapes(np.shape(r), t.shape))
    materials = {"D": constant(0.5), "Gamma": constant(0.0), name: pole}
    material = MaterialModel(D=materials["D"], Gamma=materials["Gamma"])
    with pytest.raises(SolverError, match=f"^{name} "):
        material_residual(material, CONDITIONS,
                          TransformParams(0.02, CASE_D_A),
                          GridSpec(0.5, 1.5, 1.0, 32, 32))


@pytest.mark.parametrize("value", [0.0, -0.5])
def test_material_residual_refuses_a_diffusion_that_is_not_positive(value):
    # the material check asks of D what the solver's stencil asks
    material = MaterialModel(D=constant(value), Gamma=constant(0.0))
    grid = GridSpec(0.5, 1.5, 1.0, 32, 32)
    with pytest.raises(SolverError,
                       match="^D must be positive and finite on the grid$"):
        material_residual(material, CONDITIONS,
                          TransformParams(0.02, CASE_D_A), grid)
    with pytest.raises(SolverError,
                       match="^D must be positive and finite on the grid$"):
        solve_pde(grid, material, lambda r: np.ones_like(r), ZERO_GRAD)


# --- finite transformations ----------------------------------------------------

def test_transform_keeps_only_the_constants_the_map_reads():
    # w is not mapped and a5 = 0 is a determining constraint: a5, a7 and
    # a8 never enter the map, and any other key is ignored too
    p = TransformParams(0.02, {"a2": 1, "a5": 1.0, "a7": 2.0, "a8": 0.5,
                               "C": 3.0})
    assert p.a == {"a1": 0.0, "a2": 1.0, "a3": 0.0, "a4": 0.0, "a6": 0.0}


def test_transform_identity_at_zero_parameter():
    grid = GridSpec(0.0, 1.0, 1.0, 16, 16)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    field = solve_pde(grid, mat, lambda r: np.cos(r), ZERO_GRAD)
    out = transform_field(field, TransformParams(0.0, {"a2": 1, "a4": 2,
                                                       "a6": 0}))
    assert np.allclose(out.phi, field.phi, atol=1e-12)


def test_time_translation_of_steady_field():
    grid = GridSpec(0.0, 1.0, 1.0, 16, 32)
    mat = MaterialModel(D=constant(0.5), Gamma=constant(0.0))
    profile = np.cos(grid.r_nodes)
    steady = Field(grid=grid, material=mat,
                   phi=np.tile(profile, (grid.n_t + 1, 1)))
    out = transform_field(steady, TransformParams(0.1, {"a3": 1.0}))
    inside = np.isfinite(out.phi)
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
    p = TransformParams(0.05, {"a2": 1, "a4": 2, "a6": 0})
    out = transform_field(field, p)
    r_src, t_src = p.map_inverse(rr, tt)
    oracle = exact(r_src, t_src)
    err = np.abs(out.phi - oracle)[np.isfinite(out.phi)]
    assert np.max(err) <= 1e-6


def test_transform_composition_group_property():
    grid = GridSpec(0.0, 1.0, 1.0, 48, 48)
    mat = MaterialModel(D=constant(1.0), Gamma=constant(0.0))
    exact = lambda r, t: np.exp(-2 * r * r) * (1.0 + 0.5 * t)
    rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
    field = Field(grid=grid, material=mat, phi=exact(rr, tt))
    a = {"a2": 1, "a4": 2, "a6": 0.5}
    once = transform_field(transform_field(field, TransformParams(0.03, a)),
                           TransformParams(0.02, a))
    combined = transform_field(field, TransformParams(0.05, a))
    both = np.isfinite(once.phi) & np.isfinite(combined.phi)
    assert np.max(np.abs(once.phi[both] - combined.phi[both])) <= 1e-5


@pytest.mark.parametrize("a", [
    {"a1": 0.3, "a2": 1.0, "a3": 1.0, "a4": 2.0, "a6": 0.0},
    {"a1": 0.3, "a3": 1.0},
    {"a1": 0.3, "a2": 1e-12, "a3": 1.0, "a4": 1e-12, "a6": 0.0},
], ids=["translation-and-scaling", "translation-only", "slow-scaling"])
def test_map_inverse_is_the_flow_of_chi(a):
    # the inverse maps compose as a one-parameter group with translations
    # on, and to first order in eps they move (r, t) by -eps*chi
    rr, tt = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7))
    twice = TransformParams(0.02, a).map_inverse(
        *TransformParams(0.03, a).map_inverse(rr, tt))
    once = TransformParams(0.05, a).map_inverse(rr, tt)
    np.testing.assert_allclose(twice, once, rtol=0.0, atol=1e-14)
    eps = 1e-7
    r_src, t_src = TransformParams(eps, a).map_inverse(rr, tt)
    chi_r = a["a1"] + a.get("a2", 0.0) * rr
    chi_t = a["a3"] + a.get("a4", 0.0) * tt
    np.testing.assert_allclose((rr - r_src) / eps, chi_r, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose((tt - t_src) / eps, chi_t, rtol=0.0, atol=1e-6)


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
    a = {"a1": 0.5, "a2": 1.0, "a3": 0.5, "a4": -2.0, "a6": 0.3}
    for eps in (0.05, -0.05):
        p = TransformParams(eps, a)
        out = transform_field(field, p)
        want, inside = _transform_by_points(field, p)
        assert 0.0 < out.clipped_fraction < 0.2
        assert np.array_equal(np.isfinite(out.phi), inside)
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


def _invariance_by_fields(grid, material, p, ic, bc, refinements):
    """invariance_residual with each residual building its own stencil."""
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
        clipped = tf.clipped_fraction
        g = g.refined()
    eps_half = max_interior_residual(
        transform_field(f0, TransformParams(p.eps / 2, p.a)))
    return numerics.InvarianceReport(
        levels=tuple(levels), residuals=tuple(residuals),
        ratios=tuple(residuals[i] / residuals[i + 1]
                     for i in range(len(residuals) - 1)),
        base_residuals=tuple(base_residuals), eps_half_residual=eps_half,
        clipped_fraction=clipped)


@pytest.mark.parametrize("refinements, stencils", [(0, (2, 2)), (1, (2, 4)),
                                                   (4, (8, 13))])
def test_invariance_shares_each_grids_stencil(monkeypatch, refinements, stencils):
    # one stencil per solve and one per grid's residuals, against one per
    # solve and one per residual
    calls = []
    stencil = numerics._stencil

    def counted(*args):
        calls.append(args[0])
        return stencil(*args)

    monkeypatch.setattr(numerics, "_stencil", counted)
    grid = GridSpec(0.5, 1.5, 1.0, 12, 10)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    p = TransformParams(0.02, CASE_D_A)
    shared = invariance_residual(grid, case_d_material(), p, ic, ZERO_GRAD,
                                 refinements=refinements)
    assert len(calls) == stencils[0]
    del calls[:]
    assert shared == _invariance_by_fields(grid, case_d_material(), p, ic,
                                           ZERO_GRAD, refinements)
    assert len(calls) == stencils[1]


def test_invariance_case_d_refinement():
    grid = GridSpec(0.5, 1.5, 1.0, 40, 40)
    mat = case_d_material()
    p = TransformParams(0.02, CASE_D_A)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    rep = invariance_residual(grid, mat, p, ic, ZERO_GRAD, refinements=3)
    for ratio in rep.ratios:
        assert 2.8 <= ratio <= 5.2
    assert rep.clipped_fraction < 0.2


def test_a_transformed_residual_is_nan_exactly_where_the_mask_drops_it():
    # discrete_residual applies no mask: the clipped nodes of a transformed
    # field are NaN, and the five-point stencil spreads that NaN to exactly
    # the interior nodes the valid mask leaves out; the border is NaN too
    grid = GridSpec(0.5, 1.5, 1.0, 40, 40)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    field = solve_pde(grid, case_d_material(), ic, ZERO_GRAD)
    tf = transform_field(field, TransformParams(0.02, CASE_D_A))
    nan = np.isnan(discrete_residual(tf))
    ok = numerics._residual_mask(tf)
    assert tf.clipped_fraction > 0 and not ok[1:-1, 1:-1].all()
    assert np.array_equal(nan[1:-1, 1:-1], ~ok[1:-1, 1:-1])
    border = np.ones(nan.shape, bool)
    border[1:-1, 1:-1] = False
    assert nan[border].all()


def test_the_residual_mask_is_the_in_domain_test_with_its_neighbours():
    # NaN alone marks the clipped nodes: the mask read from phi is the one
    # built from the inverse map's in-domain test on the grid axes
    grid = GridSpec(0.5, 1.5, 1.0, 40, 40)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    field = solve_pde(grid, case_d_material(), ic, ZERO_GRAD)
    p = TransformParams(0.02, CASE_D_A)
    tf = transform_field(field, p)
    r_src, t_src = p.map_inverse(grid.r_nodes, grid.t_nodes)
    inside = (((t_src >= -1e-12) & (t_src <= grid.t1 + 1e-12))[:, None]
              & ((r_src >= grid.r0 - 1e-12) & (r_src <= grid.r1 + 1e-12))[None, :])
    want = inside.copy()
    want[1:-1, 1:-1] &= (inside[:-2, 1:-1] & inside[2:, 1:-1]
                         & inside[1:-1, :-2] & inside[1:-1, 2:])
    assert not inside.all()
    assert np.array_equal(numerics._residual_mask(tf), want)
    assert numerics._residual_mask(field).all()


def test_a_material_pole_on_a_node_is_not_dropped_from_the_residual():
    # the solver takes Gamma at half steps only, so it never meets the pole
    # at t = 1/2; the residual is non-finite on that row, which must not
    # read as a small residual
    grid = GridSpec(0.0, 1.0, 1.0, 8, 8)

    def gamma(r, t):
        with np.errstate(divide="ignore"):
            return 1.0 / (1000.0 * np.asarray(t) - 500.0) * np.ones_like(
                np.asarray(r))
    field = solve_pde(grid, MaterialModel(D=constant(0.5), Gamma=gamma),
                      lambda r: np.ones_like(r), ZERO_GRAD)
    with pytest.raises(SolverError, match="^non-finite discrete residual at "
                                          "t = 0.5, r = 0.25$"):
        max_interior_residual(field)


def test_invariance_zero_parameter_equals_base_residual():
    grid = GridSpec(0.5, 1.5, 1.0, 32, 32)
    mat = case_d_material()
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    field = solve_pde(grid, mat, ic, ZERO_GRAD)
    out = transform_field(field, TransformParams(0.0, CASE_D_A))
    assert max_interior_residual(out) == pytest.approx(
        max_interior_residual(field), rel=1e-9)


def test_an_invariance_study_at_eps_0_is_refused():
    # at eps = 0 the map is the identity, so the "transformed" residuals are
    # the base residuals: their ratios read 4 and no symmetry is tested
    grid = GridSpec(0.5, 1.5, 1.0, 16, 16)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    with pytest.raises(SolverError, match="^the invariance study needs a "
                                          "nonzero eps: at eps = 0 the map "
                                          "is the identity$"):
        invariance_residual(grid, case_d_material(),
                            TransformParams(0.0, CASE_D_A), ic, ZERO_GRAD,
                            refinements=2)


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


@pytest.mark.parametrize("delta, passes", [(0.0, True), (1e-3, False)])
def test_invariance_band_resolves_a_break_of_1e3(delta, passes):
    # the verdict's band, the last ratio inside 4 +/- 30% at the levels
    # 40^2 to 320^2 that `verify --refine 3` runs, sees a Gamma exponent
    # broken by 1e-3 (ratios 4.113, 3.456, 1.755) and passes the exact
    # family (3.994, 3.999, 4.000)
    def gamma(r, t):
        return 0.5 * (2.0 * t + r * r) ** (-1.0 + delta)
    mat = MaterialModel(D=constant(0.35), Gamma=gamma, v=1.0)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    report = invariance_residual(GridSpec(0.5, 1.5, 1.0, 40, 40), mat,
                                 TransformParams(0.02, CASE_D_A), ic,
                                 ZERO_GRAD, refinements=4)
    assert report.levels[-1] == (320, 320)
    assert (2.8 <= report.ratios[-1] <= 5.2) is passes


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
    a = {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 2.0, "a6": 0.0}
    mat = _case_materials(enumerate_cases(Model(), ("B",))["B"], a, 1.0)
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
