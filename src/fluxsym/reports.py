"""Machine-readable reports.

JSON is the only machine format (schema_version-tagged, sorted keys,
deterministic: no field but `seed` depends on the seed); the Markdown
summaries printed by the CLI are the only human format.  Equations are
serialized as printer strings plus a canonical hash of that string.
"""

from __future__ import annotations

import hashlib
import json
import math

from .kernel import to_text

SCHEMA_VERSION = "1"


def equation_payload(e) -> dict:
    text = e if isinstance(e, str) else to_text(e)
    return {
        "text": text,
        "hash": hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
    }


def determining_system_payload(system) -> dict:
    return {
        "geometry_mode": str(system.geometry_mode),
        "constraints": [
            {
                "name": c.name,
                "equation": equation_payload(c.equation),
                "solved": c.solved,
                "assumption": c.assumption,
            }
            for c in system.constraints
        ],
        "material_conditions": {
            "diffusion_first_order": equation_payload(system.diffusion_pde),
            "diffusion_first_order_reduced":
                equation_payload(system.diffusion_pde_reduced),
            "diffusion_second_order":
                equation_payload(system.diffusion_second_order),
            "gamma_first_order": equation_payload(system.gamma_pde),
            "geometry_lock": (equation_payload(system.geometry_lock)
                              if system.geometry_lock is not None else None),
        },
        "generator": dict(system.generator_final),
        "multipliers": {
            source: [{"basis": b, "pivot": p, "value": v}
                     for b, p, v in entries]
            for source, entries in system.multipliers.items()
        },
        "residual_equations": [
            {
                "source": eq.source,
                "basis": eq.basis,
                "monomial": eq.monomial,
                "equation": equation_payload(eq.expression),
            }
            for eq in system.residual_equations
        ],
        "assumptions": list(system.assumptions),
        "notes": list(system.notes),
        # extract_determining raises on an unknown zero-verdict
        "unknown_verdicts": 0,
    }


def audit_payload(report) -> dict:
    return {
        "rows": [
            {
                "id": row.identifier,
                "published": equation_payload(row.published_form),
                "engine": (equation_payload(row.engine_form)
                           if row.engine_form is not None else None),
                "status": row.status,
                "note": row.note,
            }
            for row in report.rows
        ],
        "assumptions": list(report.assumptions),
        "notes": list(report.notes),
        "unknown_verdicts": report.unknown_verdicts,
    }


def closure_payload(result) -> dict:
    return {
        "identically_zero": result.identically_zero,
        "multiplier": equation_payload(result.multiplier),
        "residual": equation_payload(result.residual),
    }


def case_payload(case) -> dict:
    def solution(sol, check):
        return {
            "expression": equation_payload(sol.expression),
            "similarity_argument": (equation_payload(sol.xi)
                                    if sol.xi is not None else None),
            "symbol": sol.symbol,
            "conditions": list(sol.conditions),
            "branch": sol.branch,
            "back_substitution": {
                "verdict": check.verdict,
                "symbolic_zero": check.verdict == "zero",
                "max_residual": check.max_residual,
            },
        }
    return {
        "case": case.case_id,
        "constraints": list(case.constraints),
        "D": solution(case.diffusion, case.diffusion_check),
        "Gamma": solution(case.gamma, case.gamma_check),
        "coincides_with": case.coincides_with,
        "notes": list(case.notes),
    }


def invariance_payload(report) -> dict:
    return {
        "levels": [list(level) for level in report.levels],
        "residuals": list(report.residuals),
        "ratios": list(report.ratios),
        "convergence_orders": [math.log2(r) if r > 0 else None
                               for r in report.ratios],
        "base_residuals": list(report.base_residuals),
        "eps_half_residual": report.eps_half_residual,
        "clipped_fraction": report.clipped_fraction,
    }


def write_report(path, command: str, body: dict, seed: int) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "command": command,
               "seed": seed, **body}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
