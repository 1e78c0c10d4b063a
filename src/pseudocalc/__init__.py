"""pseudocalc: generator-based pseudo-integrals and Hardy-type inequality checks.

Numerical pseudo-analysis on the carrier [0, 1]: g-integrals (1-D and 2-D),
sup-integrals against a density, the two-dimensional Sugeno integral, and
verifiers for the two-dimensional Hardy-type inequalities in their
g-generated, sup-semiring, Sugeno, and classical forms, plus a seeded fuzz
harness and a CLI front-end.

Callers import the submodules (pseudocalc.hardy, pseudocalc.pseudo_integral,
pseudocalc.cli, ...); the package itself holds only the version.
"""

__version__ = "0.1.0"
