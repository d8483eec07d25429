"""Symmetry analysis of the time-dependent monoenergetic neutron diffusion
equation: a purpose-built symbolic kernel, differential forms, generator
application with determining-equation extraction and audit, closed-form
material families by characteristics, and a finite-difference verification
harness."""
