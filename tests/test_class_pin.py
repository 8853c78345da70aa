"""Euler classes are pinned by their windows. One sha256 covers every
``euler_class`` call that the suite at N = 16 and the eval pool at N = 12
(without the nested-CK expressions) make: the input complex and order, then
the class's regime and, per vertex, its window and coefficients, or the type
of the error it raised. Renders print no ``min_exp``, so a change of window
rule that leaves every rendered coefficient alone still moves this hash."""

import hashlib
import json
from contextlib import ExitStack
from unittest import mock

from jwcat import exprs, kclass, verify
from jwcat.kclass import euler_class
from jwcat.verify import VerificationConfig, run_suite
from test_reduction_pin import run_pool

# the modules that bind euler_class, each patched where it reads it
READERS = (exprs, kclass, verify)
PINNED = "593683b5bacf281d1d3acb0c2d0154bfbdb6a390026b1216b2acf5a0df4cd680"


def recorded_classes(run):
    """The text of every ``euler_class`` call ``run()`` makes, in call order."""
    seen = []

    def call(x, order):
        head = [x.to_json(), order]
        try:
            k = euler_class(x, order)
        except Exception as exc:   # recorded, then raised again
            seen.append(json.dumps(head + [type(exc).__name__], sort_keys=True,
                                   ensure_ascii=False))
            raise
        series = {v: [s.min_exp, s.order, [[e, str(c)] for e, c in sorted(s.coeffs.items())]]
                  for v, s in k.series.items()}
        seen.append(json.dumps(head + [k.regime, series], sort_keys=True,
                               ensure_ascii=False))
        return k

    with ExitStack() as stack:
        for module in READERS:
            stack.enter_context(mock.patch.object(module, "euler_class", call))
        run()
    return seen


def class_digest():
    texts = recorded_classes(lambda: run_suite(VerificationConfig(window=16)))
    texts += recorded_classes(run_pool)
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    return len(texts), digest.hexdigest()


def test_every_class_of_the_suite_and_the_pool_is_pinned():
    count, digest = class_digest()
    assert count > 400
    assert digest == PINNED
