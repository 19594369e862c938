"""One verify run shares its blow-ups and oracles, and a corruption stays local.

``run_suite`` hands every suite one memoized blow-up builder, which the slice
models read through too; a reader of a model's coordinates, relation or
involutions takes its declared row and builds no model. A ring builds each
subalgebra oracle once, so the ``S <-> GG`` identification and the K-ring's
conversion back from the blow-up use one oracle. A corrupted GG blow-up is a
new object, so only the blowup suite's GG records fail: the ones
acceptance criterion 12 pins for ``blowup:GG`` run alone. A control outside
the suite it is run on is an error, not a passing run.
"""

import re
from collections import Counter

import pytest

import blowring.centralizer as centralizer
import blowring.kring as kring
import blowring.verify as verify
from blowring.kring import KRing
from blowring.reports import Config
from blowring.rings import SubalgebraOracle

from conftest import FAILED_UNDER


def test_all_builds_each_blowup_and_oracle_once(monkeypatch):
    built = Counter()
    blowups = {}
    original_build = verify.build_blowup

    def counting_build(datum, flavor):
        built[flavor] += 1
        blowups[flavor] = original_build(datum, flavor)
        return blowups[flavor]

    oracles = []
    original_init = SubalgebraOracle.__init__

    def recording_init(self, ring, generators, tags):
        original_init(self, ring, generators, tags)
        oracles.append(self)

    models = Counter()
    original_model = centralizer.model

    def counting_model(name, blowup=None):
        models[name] += 1
        return original_model(name, blowup)

    for module in (verify, kring, centralizer):
        monkeypatch.setattr(module, "build_blowup", counting_build)
    for module in (centralizer, kring):
        monkeypatch.setattr(module, "model", counting_model)
    monkeypatch.setattr(SubalgebraOracle, "__init__", recording_init)
    report = verify.run_suite("all", Config(), corrupt="blowup:GG")

    assert built == Counter({flavor: 1 for flavor in verify.FLAVORS})
    # one per model in the centralizer suite, the K-ring's, and the homology kernel's
    assert models == Counter({"S": 2, "S-prime": 2, "A2-Gg": 1, "A2-gg": 1})
    B = blowups["GG"]
    (shared,) = [o for o in oracles if o.ring is B.ring]
    assert shared.tags == ("a", "b", "c")
    assert KRing(B)._blowup_oracle() is shared
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == [f"blowup: {name}" for name in FAILED_UNDER["blowup:GG"]]


@pytest.mark.parametrize("control", ["typo", "blowup:GG", "kring"])
def test_control_outside_the_suite_is_rejected(control):
    with pytest.raises(ValueError, match=re.escape(repr(control))):
        verify.run_suite("homology", Config(), corrupt=control)
