"""Former home of the eigensolver, kept as two aliases into linalg.

perfbench/layertrace.py finds the eigensolve layer through these names;
ROADMAP item 1 moves it to linalg and removes this module.
"""

from .linalg import eigh as sorted_eigh, eigh_unsorted as jacobi_eigh  # noqa: F401
