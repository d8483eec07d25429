"""Published reference forms this tool audits.

The derivation that introduced this symmetry analysis prints a set of
determining equations and a summary table of material-property families.
The engine re-derives everything from first principles and grades each
published row: reproduced, implied, not derivable, or discrepant.  The
strings here are reference data, never inputs to the derivation itself.

All equations are "expression = 0" with the expression given in the
kernel grammar.
"""

DETERMINING_EQUATIONS = {
    # from the gradient-definition reduction
    "w_translation": "a7",
    "w_scaling_link": "a6 - a2 - a8",
    # from the flux-balance reduction
    "diffusion_first_order":
        "(a1 + a2*r)*D_r + (a3 + a4*t)*D_t + (a8 + a4 - a2 - a6)*D",
    "diffusion_gradient_lock": "a1*D_r",
    "diffusion_second_order":
        "(a1 + a2*r)*D_rr + (a3 + a4*t)*D_rt + (a4 - a2)*D_r",
    "geometry_translation_lock": "n*D*a1",
    "gamma_first_order":
        "(a1 + a2*r)*Gamma_r + (a3 + a4*t)*Gamma_t + a4*Gamma",
    "flux_translation": "a5",
    # simplified forms quoted in the case analysis
    "diffusion_first_order_reduced":
        "(a1 + a2*r)*D_r + (a3 + a4*t)*D_t - (2*a2 - a4)*D",
    "diffusion_second_order_reduced":
        "(a1 + a2*r)*D_rr + (a3 + a4*t)*D_rt - (a2 - a4)*D_r",
}

# The dphi^dt coefficient of the published expanded flux-balance relation.
# The term-by-term expansion rule gives this coefficient with a single
# D_r*(a1 + a2*r); the published display carries it twice.
EXPANDED_FLUX_PHI_T_COEFFICIENT = (
    "n*((a1 + a2*r)*D_r + (a3 + a4*t)*D_t) + n*D*(a6 + a4)"
    " + D_r*(a1 + a2*r)"
    " + r*((a1 + a2*r)*D_rr + (a3 + a4*t)*D_rt)"
    " + D_r*((a1 + a2*r) + r*(a6 + a4))"
)

# Summary-table material families as printed (for typo reconciliation).
# The derived forms differ where noted; the printed variants fail
# back-substitution, the derived ones pass.
TABLE_FORMS = {
    "A": {
        "D": "(a3 + a4*t)^(2*a2/a4 - 1) * G((r + a1/a2)*(a3 + a4*t)^(-a2/a4))",
        "Gamma": "(a3 + a4*t)^(-1) * F((r + a1/a2)*(a3 + a4*t)^(a2/a4))",
    },
    "B": {
        "D": "(a3 + a4)^(2*a2/a4 - 1) * G(r*(a3 + a4*t)^(-a2/a4))",
        "Gamma": "(a3 + a4*t)^(-1) * F(r*(a3 + a4*t)^(-a2/a4))",
    },
    "C": {
        "D": "(a3 + a4)^(2*a2/a4 - 1) * G(r*(a3 + a4*t)^(-a2/a4))",
        "Gamma": "(a3 + a4*t)^(-1) * F(r*(a3 + a4*t)^(-a2/a4))",
    },
    "D": {
        "D": "C*(a3 + a4*t)^(2*a2/a4 - 1)",
        "Gamma": "(a3 + a4*t)^(-1) * F((r + a1/a2)*(a3 + a4*t)^(a2/a4))",
    },
    "E": {
        "D": "C*(a3 + a4*t)^(2*a2/a4 - 1)",
        "Gamma": "(a3 + a4*t)^(-1) * F(r*(a3 + a4*t)^(-a2/a4))",
    },
    "F": {
        "D": "C*(a3 + a4*t)^(2*a2/a4 - 1)",
        "Gamma": "(a3 + a4*t)^(-1) * F(r*(a3 + a4*t)^(-a2/a4))",
    },
}

TABLE_NOTES = {
    "A": ["published table prints the Gamma argument with exponent +a2/a4; "
          "the derivation gives -a2/a4 (the printed form fails back-substitution)"],
    "B": ["published table prints the D prefactor base as (a3 + a4), "
          "missing t; read (a3 + a4*t)"],
    "C": ["published table prints the D prefactor base as (a3 + a4), "
          "missing t; read (a3 + a4*t)"],
    "D": ["published table prints the Gamma argument with exponent +a2/a4; "
          "the derivation gives -a2/a4 (the printed form fails back-substitution)"],
    "E": [],
    "F": [],
}
