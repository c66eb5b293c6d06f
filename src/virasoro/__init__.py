"""Exact computations in highest-weight representation theory of the
Virasoro algebra: Verma modules and their Shapovalov forms, Kac
determinants, singular vectors by three routes, density-module
obstruction polynomials, Jantzen filtrations with the character sums
they produce, oscillator modules with determinantal singular vectors,
and a truncated fermionic Fock space with vertex-operator identity
checks.

Every computation is exact rational arithmetic; there is no floating
point anywhere in the package.

The package has no top-level re-exports, so `import virasoro` loads
nothing else: import from the submodules, for example
`from virasoro.verma import gram_matrix`.
"""

__version__ = "0.1.0"
