"""One SHA-256 per field and assumption set pins every verdict of the corpus domain.

Recipe: walk ``oracles.shape_domain()`` in order and build each parameter
with ``oracles.build_parameter``.  For each ``FieldKind`` and each
assumption set, none or all, one hash is fed, per parameter, with
``json.dumps(v.to_dict(), sort_keys=True)``, then ``";".join`` of
``f"{rule}:{name}"`` over the firings, then ``"\\n"``.  That covers the
status, ``p_psi``, ``eta``, the three bounds, both witnesses, the firings
with their rule names, and the warnings of 6,769 parameters.

A change that means to alter a verdict or a witness must say so and
re-record the values below; every other change must leave them alone.
"""

import hashlib
import json

import pytest

from cuspcheck import Assumption, FieldKind, verdict

import oracles

ASSUMPTION_SETS = {"none": (), "all": tuple(Assumption)}

EXPECTED = {
    "general-none": "338d2b99a0d4555e782cbac15e1efd16a710163df47c0acb97583dcefac08f02",
    "general-all": "be1c0b1e10f3be02ca55c5b9acf66cc2680233fd881f871462189937267a6704",
    "totally-imaginary-none": "fe95c785127506b79f3afd201e22e2fff4d17b10d773f11e9bfa44368bce55fe",
    "totally-imaginary-all": "ba8189de974f70fb3217f4faf4e2ba3dde494d6c6648c0277b3b01609d82e8e6",
    # Totally real and general share every rule: R4-R6 need a totally imaginary field.
    "totally-real-none": "338d2b99a0d4555e782cbac15e1efd16a710163df47c0acb97583dcefac08f02",
    "totally-real-all": "be1c0b1e10f3be02ca55c5b9acf66cc2680233fd881f871462189937267a6704",
}


@pytest.fixture(scope="module")
def digests():
    hashes = {
        f"{field.value}-{name}": (field, assumptions, hashlib.sha256())
        for field in FieldKind
        for name, assumptions in ASSUMPTION_SETS.items()
    }
    for pairs in oracles.shape_domain():
        psi = oracles.build_parameter(pairs)
        for field, assumptions, h in hashes.values():
            v = verdict(psi, field, assumptions)
            h.update(json.dumps(v.to_dict(), sort_keys=True).encode())
            h.update(";".join(f"{f.rule}:{f.name}" for f in v.firings).encode())
            h.update(b"\n")
    return {key: h.hexdigest() for key, (_, _, h) in hashes.items()}


@pytest.mark.parametrize("key", EXPECTED)
def test_verdicts_match_the_pinned_digest(digests, key):
    assert digests[key] == EXPECTED[key]
