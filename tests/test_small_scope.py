"""Bounded-exhaustive small-scope check: every small instance, not a sample."""

import time

from .helpers import small_scope_check


def test_every_instance_up_to_three_jobs():
    # 2270 instances: every multiset of at most 3 jobs over releases
    # {0, 1/2, 1} and sizes {1/2, 1, 3/2, 2}, at five values of eps
    t0 = time.time()
    instances, targets, failures, first = small_scope_check(3)
    if first is not None:
        print(first)
    print(f"small scope n <= 3: {instances} instances, {targets} targets, "
          f"{failures} failures, {time.time() - t0:.0f}s")
    assert instances == 2270
    assert failures == 0, first
