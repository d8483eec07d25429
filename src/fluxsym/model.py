"""Standard symbols of the diffusion model.

Coordinates t, r, phi (scalar flux) and w (its radial gradient); the group
constants a1..a8 of the translation/scaling family; neutron speed v;
geometry index n; the material functions D(r, t) and Gamma(r, t) with their
jets; arbitrary functions G, F and the arbitrary constant C used by the
closed-form material families.
"""

from __future__ import annotations

from .kernel import Rat, Sym, SymbolTable

COORDINATES = ("t", "r", "phi", "w")
GROUP_CONSTANTS = tuple(f"a{i}" for i in range(1, 9))


def standard_table() -> SymbolTable:
    table = SymbolTable()
    for name in COORDINATES:
        table.declare(name, "coordinate")
    for name in GROUP_CONSTANTS + ("v", "n"):
        table.declare(name, "parameter")
    table.declare("D", "arbitrary-function", arity=0)
    table.declare("Gamma", "arbitrary-function", arity=0)
    for base in ("D", "Gamma"):
        table.jet(base, 1, 0)
        table.jet(base, 0, 1)
    table.jet("D", 2, 0)
    table.jet("D", 1, 1)
    table.declare("G", "arbitrary-function", arity=1)
    table.declare("F", "arbitrary-function", arity=1)
    table.declare("C", "arbitrary-constant")
    return table


class Model:
    """A symbol table plus handles for the symbols everything else uses."""

    def __init__(self):
        self.table = standard_table()
        self.t = Sym("t")
        self.r = Sym("r")
        self.phi = Sym("phi")
        self.w = Sym("w")
        self.v = Sym("v")
        self.n = Sym("n")
        self.D = Sym("D")
        self.Gamma = Sym("Gamma")
        self.C = Sym("C")
        for i in range(1, 9):
            setattr(self, f"a{i}", Sym(f"a{i}"))

    def geometry_index(self, mode):
        """Geometry index as an expression: 'symbolic' or an int 0/1/2."""
        if mode == "symbolic":
            return self.n
        if type(mode) is int and mode in (0, 1, 2):
            return Rat(mode)
        raise ValueError(f"geometry index must be symbolic or 0/1/2, got {mode!r}")
