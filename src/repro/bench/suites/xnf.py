"""XNF-test benchmarks (Corollary 1): the scaling series, the
violation listing, the real-world ebXML schema, and the
already-normalized fast path (``python -m repro.bench run --only
xnf.``)."""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.datasets.ebxml import ebxml_dtd
from repro.datasets.generators import scaled_university_spec
from repro.fd.model import FD
from repro.xnf.check import is_in_xnf, xnf_violations


@benchmark("xnf.check_scaling", series=(1, 2, 4, 8, 16),
           quick=(1, 2, 4), param="k")
def check_scaling(k):
    spec = scaled_university_spec(k)
    return lambda: is_in_xnf(spec.dtd, spec.sigma)


@benchmark("xnf.violation_listing", series=(1, 2, 4, 8), quick=(1, 2),
           param="k")
def violation_listing(k):
    spec = scaled_university_spec(k)
    return lambda: xnf_violations(spec.dtd, spec.sigma)


@benchmark("xnf.ebxml")
def ebxml():
    """Figure 5: the (simple) ebXML BPSS fragment with name-key FDs."""
    dtd = ebxml_dtd()
    sigma = [
        FD.parse("ProcessSpecification.Include.@name -> "
                 "ProcessSpecification.Include"),
        FD.parse("ProcessSpecification.BinaryCollaboration.@name -> "
                 "ProcessSpecification.BinaryCollaboration"),
        FD.parse(
            "ProcessSpecification.BinaryCollaboration ->"
            " ProcessSpecification.BinaryCollaboration."
            "InitiatingRole.@name"),
    ]
    return lambda: is_in_xnf(dtd, sigma)


@benchmark("xnf.after_normalization")
def after_normalization():
    """The normalized schema passes the test (and cheaply)."""
    spec = scaled_university_spec(4)
    result = spec.normalize()
    return lambda: is_in_xnf(result.dtd, result.sigma)
