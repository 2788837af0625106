"""repro — a reproduction of "A Normal Form for XML Documents"
(Arenas & Libkin, PODS 2002).

The package implements XML functional dependencies, the XML normal
form XNF, and the lossless XNF decomposition algorithm, together with
every substrate the paper relies on: DTDs with regular-expression
content models, unordered XML trees, tree tuples, FDs over incomplete
relations, classical relational normalization (BCNF), and nested
relations with PNF/NNF.

Quickstart::

    from repro import XMLSpec

    spec = XMLSpec.parse(dtd_text, fd_lines)
    spec.is_in_xnf()                  # Definition 8 (via Prop. 10)
    result = spec.normalize()         # the Figure 4 algorithm
    print(result.dtd)                 # the XNF redesign
    new_doc = result.migrate(doc)     # carry documents across, lossless

The names below are re-exported from the modules that define them, and
each is imported on first use: ``import repro`` alone loads no engine,
so ``xnf --help`` pays for none.
"""

import sys
import types

__version__ = "1.0.0"

#: Each home module and the names re-exported from it, in ``__all__``
#: order.
_EXPORTS = {
    # DTDs and paths
    "repro.dtd": ("DTD", "Path", "parse_dtd", "serialize_dtd",
                  "is_simple_dtd", "is_disjunctive_dtd"),
    # XML trees
    "repro.xmltree": ("XMLTree", "elem", "parse_xml", "serialize_xml",
                      "conforms"),
    # tree tuples
    "repro.tuples": ("TreeTuple", "tuples_of", "trees_of"),
    # FDs
    "repro.fd": ("FD", "satisfies", "implies", "is_trivial",
                 "ImplicationEngine"),
    # XNF + normalization
    "repro.xnf": ("is_in_xnf", "xnf_violations"),
    "repro.normalize": ("normalize", "normalize_simple",
                        "NormalizationResult", "NewElementNames"),
    # the facade
    "repro.spec": ("XMLSpec",),
    # extensions: MVDs (Section 8), reporting, explanations
    "repro.mvd": ("MVD", "satisfies_mvd", "tree_induced_mvds",
                  "is_in_xnf4"),
    "repro.report": ("DesignReport", "analyze", "redundancy_of"),
    "repro.fd.explain": ("explain_implication",),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Importing ``repro.normalize`` binds the subpackage onto this
        # package; the re-exported function of that name keeps it.
        if name in _HOMES and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
