"""Exact-arithmetic lattice certificates for twisted derived equivalences of
Hilbert-scheme type: construction pipeline, wall obstruction, and verifier.

The package exports nothing itself; import the submodules (``hkcert.cli``,
``hkcert.certificate``, ``hkcert.construction``, ``hkcert.lattice``, ...)."""
