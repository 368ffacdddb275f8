"""Grassmann-integral toolkit for fermionic reduced density matrices.

Star-product algebra over anticommuting generator pairs, a brute-force
Fock-space oracle, extraction of one- and two-body density matrices,
G/P/Q/T1/T2 representability checks, and quasifree state construction.

Each name has one import path, its defining module: `from grdm import fock`
or `from grdm.conditions import check_P`.  `import grdm` imports no
submodule, so each command loads only the modules it runs.
"""

__version__ = "0.1.0"
