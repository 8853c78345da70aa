"""Grothendieck classes are pinned by their windows. One sha256 covers every
``euler_class``, ``class_of_module`` and ``duality_on_class`` call that the
suite at N = 16 and the eval pool at N = 12 (without the nested-CK
expressions) make, in call order: the function, its input (complex or module
and order, or the class it twists), then the class's regime and, per vertex,
its window and coefficients, or the type of the error it raised. Renders
print no ``min_exp``, so a change of window rule that leaves every rendered
coefficient alone still moves this hash."""

import hashlib
import json
from contextlib import ExitStack
from unittest import mock

from jwcat import exprs, kclass, verify
from jwcat.verify import VerificationConfig, run_suite
from test_reduction_pin import run_pool

# the modules that bind a class function, each patched where it reads it
READERS = (exprs, kclass, verify)
PINNED = "133c676ff500b3b2186504ce1e79a6f20effd76ce79c2b2e406549e751c67cd3"


def class_text(k):
    return [k.regime, {v: [s.min_exp, s.order,
                           [[e, str(c)] for e, c in sorted(s.coeffs.items())]]
                       for v, s in k.series.items()}]


# each recorded function and the text of its input
RECORDED = {
    "euler_class": lambda x, order: [x.to_json(), order],
    "class_of_module": lambda M, order: [M.to_json(), order],
    "duality_on_class": class_text,
}


def recorded_classes(run):
    """The text of every recorded call ``run()`` makes, in call order."""
    seen = []

    def wrap(name, fn):
        def call(*args):
            head = [name, RECORDED[name](*args)]
            try:
                k = fn(*args)
            except Exception as exc:   # recorded, then raised again
                seen.append(json.dumps(head + [type(exc).__name__], sort_keys=True,
                                       ensure_ascii=False))
                raise
            seen.append(json.dumps(head + class_text(k), sort_keys=True,
                                   ensure_ascii=False))
            return k
        return call

    with ExitStack() as stack:
        for name in RECORDED:
            wrapped = wrap(name, getattr(kclass, name))
            for module in READERS:
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, wrapped))
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
