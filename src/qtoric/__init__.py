"""Exact classification of quasitoric manifolds over a product of two
simplices (second Betti number 2), with integer-lattice and polynomial
machinery, closed-form homeomorphism decisions, and independent brute-force
oracles.

The package exports the public names of its five library layers.  The
table ``_LAYER_OF`` below is the one list of them: it maps each exported
name to the layer that defines it, and a test checks it against the
public functions and classes each layer defines.  Importing the package
loads no layer: the first access to an exported name imports its layer
and stores the name here, so later accesses are plain attribute reads.
A layer module itself, ``qtoric.oracle`` say, is loaded the same way."""

import sys

# the layer module that defines each exported name
_LAYER_OF = {
    name: layer
    for layer, names in (
        ("lattice", "IntMatrix LatticeBasis smith_normal_form kernel_basis"
         " is_basis_extendable lattice_from_generators"),
        ("polyring", "HomogPoly linear_product substitute_linear ideal_degree_lattice"),
        ("quasitoric", "CharPair Presentation GradedRanks validate validate_bruteforce"
         " normalize cohomology_presentation graded_ranks kernel_lattice"
         " characteristic_matrix_grouped kernel_span_vectors h_vector"),
        ("classify", "HomeoClass tilde_canonical canonical_class same_class"
         " homeomorphic enumerate_classes count_nonbott is_nonbott_class"),
        ("oracle", "IsoVerdict MonomialWitness ring_iso_search witness_check"
         " builtin_witness"),
    )
    for name in names.split()
}

__all__ = list(_LAYER_OF)


def _layer(name):
    """The layer module ``name``, imported on first use; ``sys`` is loaded
    before any package, where ``importlib`` may not be."""
    __import__(__name__ + "." + name)
    return sys.modules[__name__ + "." + name]


def __getattr__(name):
    if name in _LAYER_OF:
        value = globals()[name] = getattr(_layer(_LAYER_OF[name]), name)
        return value
    if name in _LAYER_OF.values():
        return _layer(name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
