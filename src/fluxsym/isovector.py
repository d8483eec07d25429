"""Generator application, ideal reduction and determining-equation extraction.

The restricted translation/scaling generator acts on the exterior system
{mu_1, mu_2}.  Invariance demands each Lie derivative lie in the algebraic
ideal of the system: chi(beta) = sum(lambda_i * basis_i) + residual with the
residual identically zero.  Multipliers are solved slot by slot; leftover
slot coefficients, split by monomials in the independent coordinates phi
and w, are the determining equations.  The engine's own derivation is
ground truth; the published set is reference data graded by the audit.
"""

from __future__ import annotations

from typing import NamedTuple

from . import published
from .forms import (
    DifferentialForm, basis_label, build_mu1, build_mu2, build_mu3,
    exterior_d, scalar_form, section, wedge, SLOTS,
)
from .kernel import (
    Add, Expr, MINUS_ONE, Mul, ONE, Rat, Sym, SymbolTable, ZERO, ZeroVerdict,
    affine_coefficients, apply_derivation, coefficient, collect_by,
    differentiate, free_symbols, is_zero,
    linear_combination, normalize, poly_div_exact, sign_normalize,
    strip_coordinates, substitute, to_text,
)
from .model import Model
from .parser import parse


class DerivationError(Exception):
    pass


# --------------------------------------------------------------------------
# Generator
# --------------------------------------------------------------------------

class Generator(NamedTuple):
    """Coefficients of the restricted translation/scaling vector field.

    Each coordinate coefficient is affine in its own coordinate with
    constant symbols only: (a1 + a2*r, a3 + a4*t, a5 + a6*phi, a7 + a8*w).
    """
    xi_t: Expr
    xi_r: Expr
    xi_phi: Expr
    xi_w: Expr

    @staticmethod
    def standard(model: Model) -> "Generator":
        def coef(c0, c1, coord):
            return normalize(Add((Sym(c0), Mul((Sym(c1), coord)))))
        return Generator(
            xi_t=coef("a3", "a4", model.t),
            xi_r=coef("a1", "a2", model.r),
            xi_phi=coef("a5", "a6", model.phi),
            xi_w=coef("a7", "a8", model.w),
        )

    def coordinate_coefficient(self, name: str) -> Expr:
        return {"t": self.xi_t, "r": self.xi_r,
                "phi": self.xi_phi, "w": self.xi_w}[name]


def lie_scalar(gen: Generator, f, model: Model) -> Expr:
    """Directional derivative of a scalar along the generator, with jet
    propagation: chi(D) = xi_r D_r + xi_t D_t, chi(D_r) = xi_r D_rr + xi_t D_rt."""
    return apply_derivation(
        f, lambda sym: _lie_symbol(sym, gen, model), model.table)


def _lie_symbol(s: Sym, gen: Generator, model: Model) -> Expr:
    """chi(s): a coordinate's coefficient, or else the jet rule of
    `differentiate` along r and t."""
    if model.table.info(s.name).kind == "coordinate":
        return gen.coordinate_coefficient(s.name)
    terms = tuple(Mul((gen.coordinate_coefficient(q), d)) for q in ("r", "t")
                  if (d := differentiate(s, q, model.table)) != ZERO)
    return Add(terms) if terms else ZERO


def lie_form(gen: Generator, alpha: DifferentialForm, model: Model) -> DifferentialForm:
    """Lie derivative of a form: for each term f dq1∧...∧dqk,
    chi(f)·basis plus f times every slot replaced by d[chi(q_i)]."""
    table = model.table
    d_chi: dict = {}    # slot -> d(chi(q)), the same for every term
    terms = []
    for key, coef in alpha.coefficients:
        terms.append((key, lie_scalar(gen, coef, model)))
        f = scalar_form(coef)
        for i, slot in enumerate(key):
            if slot not in d_chi:
                chi_q = lie_scalar(gen, Sym(SLOTS[slot]), model)
                d_chi[slot] = exterior_d(scalar_form(chi_q), table)
            # the basis form with slot i replaced by d(chi(q_i)): its
            # coefficients are those of d(chi(q_i)), so one wedge
            # multiplies the coefficient in
            basis = DifferentialForm.build(alpha.degree, [
                (key[:i] + k + key[i + 1:], c)
                for k, c in d_chi[slot].coefficients])
            terms.extend(wedge(f, basis).coefficients)
    return DifferentialForm.build(alpha.degree, terms)


# --------------------------------------------------------------------------
# Ideal reduction
# --------------------------------------------------------------------------

class MultiplierSolve(NamedTuple):
    """Multipliers and residual slot coefficients of one ideal reduction."""
    multipliers: tuple          # ((basis name, pivot label, Expr), ...)
    residual_form: DifferentialForm


def ideal_reduce(lie_mu: DifferentialForm, basis) -> MultiplierSolve:
    """Match `lie_mu` against the ideal basis.

    basis: ((name, form, pivot slot names), ...).  Each pivot coefficient
    must be a single monomial (otherwise the match is reported unsolvable);
    the multiplier of each basis form is fixed by its pivot slot, previous
    subtractions applied first.  Unmatched slots become residual equations.
    """
    remainder = lie_mu
    multipliers = []
    for name, form, pivot in basis:
        label = basis_label(pivot)
        pivot_coef = form.get(*pivot)
        inv = poly_div_exact(ONE, pivot_coef)
        if inv is None:
            raise DerivationError(
                f"unsolvable multiplier match for {name}: pivot {label} "
                f"coefficient {to_text(pivot_coef)} is not a monomial")
        lam = normalize(Mul((remainder.get(*pivot), inv)))
        # remainder - lam*form, each coefficient normalized once
        remainder = DifferentialForm.build(remainder.degree, [
            *remainder.coefficients,
            *((key, Mul((MINUS_ONE, lam, c))) for key, c in form.coefficients)])
        multipliers.append((name, label, lam))
    return MultiplierSolve(tuple(multipliers), remainder)


# --------------------------------------------------------------------------
# Determining-system extraction
# --------------------------------------------------------------------------

def solve_linear(e: Expr, name: str):
    """Solve c1*name + c0 = 0 for `name`; None if not linear or c1 not monomial."""
    pair = affine_coefficients(e, name)
    if pair is None or pair[1] == ZERO:
        return None
    c0, c1 = pair
    inv = poly_div_exact(ONE, c1)
    if inv is None:
        return None
    return normalize(Mul((Rat(-1), c0, inv)))


class ResidualEquation(NamedTuple):
    source: str        # which Lie derivative it came from
    basis: str         # basis 2-form slot
    monomial: str      # phi/w monomial of the split ("1" when unsplit)
    expression: Expr   # = 0


class Constraint(NamedTuple):
    name: str
    equation: Expr             # = 0
    solved: str                # human-readable solved form
    assumption: str | None = None


def _eliminate(e: Expr, relations) -> Expr:
    """Subtract multiples of the relations to remove their leading jets from
    `e`.  relations: ((jet name, equation, its jet coefficient), ...);
    multipliers must divide exactly (they always do here: the residuals are
    jet-linear)."""
    out = e
    for jet, relation, c_rel in relations:
        c_e = coefficient(out, jet)
        if c_e == ZERO:
            continue
        mult = poly_div_exact(c_e, c_rel)
        if mult is None:
            raise DerivationError(
                f"jet elimination failed: coefficient of {jet} "
                f"({to_text(c_e)}) is not a monomial multiple of {to_text(c_rel)}")
        out = linear_combination(((1, out), (-1, Mul((mult, relation)))))
    return out


class Reduction(NamedTuple):
    """Reduction modulo the derived system: the material conditions
    eliminate the jets D_t, D_rt and Gamma_t, the link constraints are
    imposed, and each geometry pin gives one branch (n = 0 or a1 = 0 under
    the symbolic geometry lock, a1 = 0 under a literal one, none without a
    lock)."""
    relations: tuple    # ((jet name, relation, its jet coefficient), ...)
    links: dict         # {"a5": 0, "a7": 0, "a8": a6 - a2}
    pins: tuple         # ({name: 0}, ...)

    def branches(self, e: Expr, table: SymbolTable) -> list:
        """The geometry branches of `e` modulo the system; `e` is implied
        iff every branch vanishes."""
        reduced = substitute(_eliminate(e, self.relations), self.links, table)
        return ([substitute(reduced, pin, table) for pin in self.pins]
                or [reduced])


class DeterminingSystem(NamedTuple):
    geometry_mode: object
    residual_equations: tuple
    multipliers: dict
    constraints: tuple
    diffusion_pde: Expr            # first-order condition on D
    diffusion_pde_reduced: Expr    # with the w-scaling link imposed
    gamma_pde: Expr
    diffusion_second_order: Expr   # r-derivative of the reduced condition
    geometry_lock: Expr | None     # n*a1*D = 0 (None when geometry is planar)
    flux_phi_t_coefficient: Expr   # dphi∧dt coefficient of chi(r*mu1)
    generator_final: dict
    assumptions: tuple
    notes: tuple
    reduction: Reduction           # for the self-consistency check and audit


def extract_determining(model: Model,
                        geometry_mode="symbolic") -> DeterminingSystem:
    """Run both reductions, split the residuals, and assemble the
    determining system for the material properties."""
    table = model.table
    geometry = model.geometry_index(geometry_mode)
    gen = Generator.standard(model)
    r_mu1 = build_mu1(model, geometry)
    mu2 = build_mu2(model)
    basis = (("r*mu1", r_mu1, ("r", "phi")), ("mu2", mu2, ("t", "phi")))

    lie_r_mu1 = lie_form(gen, r_mu1, model)
    solve1 = ideal_reduce(lie_r_mu1, basis)
    solve2 = ideal_reduce(lie_form(gen, mu2, model), basis)

    # each coefficient of a monomial in the independent coordinates phi, w
    # must vanish separately for the identity to hold on the manifold
    residual_equations = []
    split_map: dict = {}
    for source, solve in (("chi(r*mu1)", solve1), ("chi(mu2)", solve2)):
        for slots, expr in solve.residual_form.coefficients:
            label = basis_label(slots)
            for key, coef in sorted(collect_by(expr, ("phi", "w")).items(),
                                    key=lambda kv: to_text(kv[0])):
                eq = ResidualEquation(source, label, to_text(key),
                                      sign_normalize(coef))
                residual_equations.append(eq)
                split_map[(source, label, to_text(key))] = eq.expression

    # gradient-definition reduction: w-translation and the w-scaling link
    e_w_translation = split_map.get(("chi(mu2)", "dt∧dr", "1"), ZERO)
    e_w_link = split_map.get(("chi(mu2)", "dt∧dr", "w"), ZERO)
    a8_solution = solve_linear(e_w_link, "a8")
    if a8_solution is None:
        raise DerivationError("w-scaling link is not linear in a8")

    # flux-balance reduction
    e_dw = split_map.get(("chi(r*mu1)", "dt∧dw", "1"), ZERO)
    diffusion_pde = strip_coordinates(e_dw)
    e_gamma = split_map.get(("chi(r*mu1)", "dt∧dr", "phi"), ZERO)
    gamma_pde = strip_coordinates(e_gamma)
    e_flux_translation = split_map.get(("chi(r*mu1)", "dt∧dr", "1"), ZERO)
    e_lambda2 = split_map.get(("chi(r*mu1)", "dt∧dr", "w"), ZERO)

    links = {"a5": ZERO, "a7": ZERO, "a8": a8_solution}
    diffusion_pde_reduced = sign_normalize(
        substitute(diffusion_pde, links, table))
    diffusion_second_order = sign_normalize(
        differentiate(diffusion_pde_reduced, "r", table))

    # second residual of the flux balance: reduced modulo the material
    # conditions and the links, the leftover is the geometry/translation lock
    relations = tuple(
        (jet, relation, coefficient(relation, jet)) for jet, relation in (
            ("D_t", diffusion_pde),
            ("D_rt", differentiate(diffusion_pde, "r", table)),
            ("Gamma_t", gamma_pde)))
    leftover = strip_coordinates(
        substitute(_eliminate(e_lambda2, relations), links, table))
    if free_symbols(leftover) & {"D_r", "D_t", "D_rr", "D_rt"}:
        raise DerivationError(
            f"unexpected jets in the reduced flux residual: {to_text(leftover)}")

    # the flux-translation residual is r*Gamma*a5: check and reduce
    a5_eq = strip_coordinates(e_flux_translation)
    if substitute(a5_eq, {"a5": ZERO}, table) != ZERO:
        raise DerivationError("flux-translation residual is not linear in a5")
    constraints = [
        Constraint("a5", Sym("a5"), "a5 = 0",
                   assumption="Gamma is not identically 0"),
        Constraint("a7", sign_normalize(e_w_translation), "a7 = 0"),
        Constraint("a8", sign_normalize(e_w_link),
                   f"a8 = {to_text(a8_solution)}"),
    ]

    geometry_lock = None if leftover == ZERO else leftover
    pins = ()
    if geometry_lock is not None:
        symbolic = geometry_mode == "symbolic"
        pins = ({"n": ZERO}, {"a1": ZERO}) if symbolic else ({"a1": ZERO},)
        constraints.append(Constraint(
            "geometry_lock", leftover, "n*a1 = 0" if symbolic else "a1 = 0",
            assumption="D != 0"))

    generator_final = {
        "r": to_text(gen.xi_r),
        "t": to_text(gen.xi_t),
        "phi": to_text(substitute(gen.xi_phi, links, table)),
        "w": to_text(substitute(gen.xi_w, links, table)),
    }

    system = DeterminingSystem(
        geometry_mode=geometry_mode,
        residual_equations=tuple(residual_equations),
        multipliers={
            "chi(r*mu1)": tuple((n, p, to_text(l)) for n, p, l in solve1.multipliers),
            "chi(mu2)": tuple((n, p, to_text(l)) for n, p, l in solve2.multipliers),
        },
        constraints=tuple(constraints),
        diffusion_pde=diffusion_pde,
        diffusion_pde_reduced=diffusion_pde_reduced,
        gamma_pde=gamma_pde,
        diffusion_second_order=diffusion_second_order,
        geometry_lock=geometry_lock,
        flux_phi_t_coefficient=lie_r_mu1.get("phi", "t"),
        generator_final=generator_final,
        assumptions=("D != 0", "Gamma is not identically 0"),
        notes=(
            "multiplier_w_independence: the dphi∧dt match fixes the second "
            "multiplier without any w dependence; the w-split of the dt∧dr "
            "residual then forces it to vanish",
        ),
        reduction=Reduction(relations, links, pins),
    )
    check_self_consistency(system, model)
    return system


def check_self_consistency(system: DeterminingSystem, model: Model):
    """Every residual must vanish once the constraint set and the material
    conditions are imposed (branching over the geometry lock)."""
    table = model.table
    for eq in system.residual_equations:
        for b in system.reduction.branches(eq.expression, table):
            v = is_zero(b)
            if v != ZeroVerdict.ZERO:
                raise DerivationError(
                    f"residual {eq.source} {eq.basis} [{eq.monomial}] does not "
                    f"vanish under the determining system: {to_text(b)} ({v})")


# --------------------------------------------------------------------------
# Audit against the published set
# --------------------------------------------------------------------------

class AuditRow(NamedTuple):
    identifier: str
    published_form: str
    engine_form: str | None
    status: str
    note: str = ""


class AuditReport(NamedTuple):
    rows: tuple
    assumptions: tuple
    notes: tuple
    unknown_verdicts: int


def audit_against_published(system: DeterminingSystem,
                            model: Model) -> AuditReport:
    """Grade every published determining equation against the derivation."""
    table = model.table
    literal = {}
    if system.geometry_mode != "symbolic":
        literal = {"n": model.geometry_index(system.geometry_mode)}

    def published_expr(text):
        e = parse(text, table)
        return substitute(e, literal, table) if literal else e

    # the engine's equations and their consequences, each canonicalized once
    derived = {c.name: c.equation for c in system.constraints}
    primary = {
        "w_translation": derived["a7"],
        "w_scaling_link": derived["a8"],
        "flux_translation": derived["a5"],
        "diffusion_first_order": system.diffusion_pde,
        "diffusion_first_order_reduced": system.diffusion_pde_reduced,
        "gamma_first_order": system.gamma_pde,
    }
    if system.geometry_lock is not None:
        primary["geometry_translation_lock"] = system.geometry_lock
    primary = {key: strip_coordinates(e) for key, e in primary.items()}
    second_order = strip_coordinates(system.diffusion_second_order)
    consequences = {
        "diffusion_second_order": second_order,
        "diffusion_second_order_reduced": second_order,
    }

    unknown = 0
    rows = []
    for identifier, text in published.DETERMINING_EQUATIONS.items():
        printed = strip_coordinates(published_expr(text))
        if printed == ZERO:
            rows.append(AuditRow(identifier, text, "0", "implied",
                                 note="vacuous at this geometry index"))
            continue
        engine = primary.get(identifier)
        if engine is not None and engine == printed:
            rows.append(AuditRow(identifier, text, to_text(engine),
                                 "reproduced"))
            continue
        conseq = consequences.get(identifier)
        if conseq is not None and conseq == printed:
            rows.append(AuditRow(
                identifier, text, to_text(conseq), "implied",
                note="r-derivative of the first-order diffusion condition "
                     "under the w-scaling link"))
            continue
        verdicts = [is_zero(b)
                    for b in system.reduction.branches(printed, table)]
        if any(v == ZeroVerdict.UNKNOWN for v in verdicts):
            unknown += 1
            rows.append(AuditRow(identifier, text, None, "discrepant",
                                 note="zero test inconclusive"))
        elif all(v == ZeroVerdict.ZERO for v in verdicts):
            rows.append(AuditRow(identifier, text, None, "implied",
                                 note="vanishes under the derived system"))
        elif engine is not None:
            rows.append(AuditRow(identifier, text, to_text(engine),
                                 "discrepant",
                                 note="conflicts with the derived equation"))
        else:
            rows.append(AuditRow(
                identifier, text, None, "not-derivable",
                note="the reduction does not force this condition and it does "
                     "not follow from the derived system"))

    # published expanded-relation coefficient vs the term-by-term rule
    engine_coef = system.flux_phi_t_coefficient
    printed_coef = published_expr(published.EXPANDED_FLUX_PHI_T_COEFFICIENT)
    delta = linear_combination(((1, printed_coef), (-1, engine_coef)))
    if delta == ZERO:
        rows.append(AuditRow("expanded_flux_phi_t_coefficient",
                             published.EXPANDED_FLUX_PHI_T_COEFFICIENT,
                             to_text(engine_coef), "reproduced"))
    else:
        rows.append(AuditRow(
            "expanded_flux_phi_t_coefficient",
            published.EXPANDED_FLUX_PHI_T_COEFFICIENT,
            to_text(engine_coef), "discrepant",
            note=f"published display exceeds the term-by-term expansion "
                 f"by {to_text(delta)}"))

    return AuditReport(
        rows=tuple(rows),
        assumptions=system.assumptions,
        notes=system.notes + (
            "the stored flux-balance 2-form carries the production term "
            "with the sign that annuls to the governing equation",
        ),
        unknown_verdicts=unknown,
    )


# --------------------------------------------------------------------------
# Gradient-closure check
# --------------------------------------------------------------------------

class ClosureResult(NamedTuple):
    identically_zero: bool
    multiplier: Expr
    residual: Expr


def closure_check(model: Model) -> ClosureResult:
    """Invariance of the gradient-closure 2-form.

    Reduces chi(mu_3) modulo mu_3 (multiplier matched on the dD∧dt slot),
    sections the remainder onto the (r, t) basis, and certifies it is
    identically zero.
    """
    gen = Generator.standard(model)
    mu3 = build_mu3(model)
    lie_mu3 = lie_form(gen, mu3, model)
    solve = ideal_reduce(lie_mu3, (("mu3", mu3, ("t", "D")),))
    lam = solve.multipliers[0][2]
    sectioned = section(solve.residual_form, model.table)
    residual = linear_combination((1, coef) for _, coef in sectioned.coefficients)
    return ClosureResult(residual == ZERO, lam, sign_normalize(residual))
