"""Flat, single-purpose transcriptions of the two-experiment schemes.

These are deliberately written without the level-stack machinery: each phase
is its own loop, in the order the scheme description gives them. They exist
so the recursive engine can be checked step-for-step against an independent
rendering of the same rules. No imports from the package under test.

Conventions shared with the engine:
  - a step's recorded statistic is the value after any same-step reset,
  - budgets count every observation at their level, including the one that
    triggers a pop or descent,
  - a budget that resolves to zero means the level is never entered and the
    statistic snaps back to the current level's floor.

Records are (n, source, observation, statistic) where source is the
experiment id and 0 for idle steps.

renewal_cycle is the check on the renewal kernel: one pre-change renewal
cycle of a policy with any number of levels, counted per source, written as
the recursion the cycle structure describes.
"""

from __future__ import annotations

import math


def run_2e(a_y, n_x, threshold, llr_y, llr_x, next_y, next_x, resolve,
           top_budget=None, max_steps=10_000_000):
    """Two-experiment scheme, optionally truncated at the top level.

    Returns (records, stopping_time, reason); stopping_time is None if
    max_steps ran out first, at whatever level the episode was.
    """
    records = []
    n = 0
    d = 0.0
    remaining_top = None
    if top_budget is not None:
        remaining_top = resolve(top_budget)
        if remaining_top == 0:
            return records, 0, "truncation"
    while n < max_steps:
        # higher-quality experiment: floor 0, threshold check
        x = next_y()
        n += 1
        d = d + llr_y(x)
        if remaining_top is not None:
            remaining_top -= 1
        if d > threshold:
            records.append((n, 2, x, d))
            return records, n, "threshold"
        if remaining_top == 0:
            records.append((n, 2, x, d))
            return records, n, "truncation"
        if d >= 0.0:
            records.append((n, 2, x, d))
            continue
        # undershoot: move to the cheaper experiment with a scaled floor
        b = a_y * d
        budget = resolve(n_x)
        if budget == 0:
            d = 0.0
            records.append((n, 2, x, d))
            continue
        d = b
        records.append((n, 2, x, d))
        used = 0
        while True:
            if n == max_steps:
                return records, None, "max-steps"
            x = next_x()
            n += 1
            d = max(d + llr_x(x), b)
            used += 1
            if d > 0.0 or used == budget:
                d = 0.0
                records.append((n, 1, x, d))
                break
            records.append((n, 1, x, d))
    return records, None, "max-steps"


def run_de2e(a_y, a_x, n_x, n_0, mu, threshold, llr_y, llr_x, next_y, next_x,
             resolve, max_steps=10_000_000):
    """Data-efficient two-experiment scheme: idle phase below the bottom level.

    Returns what run_2e returns, with max_steps cutting any phase."""
    records = []
    n = 0
    d = 0.0
    while n < max_steps:
        x = next_y()
        n += 1
        d = d + llr_y(x)
        if d > threshold:
            records.append((n, 2, x, d))
            return records, n, "threshold"
        if d >= 0.0:
            records.append((n, 2, x, d))
            continue
        b1 = a_y * d
        budget1 = resolve(n_x)
        if budget1 == 0:
            d = 0.0
            records.append((n, 2, x, d))
            continue
        d = b1
        records.append((n, 2, x, d))
        used1 = 0
        while True:
            if n == max_steps:
                return records, None, "max-steps"
            x = next_x()
            n += 1
            d = d + llr_x(x)  # no reflection: may keep falling into the idle phase
            used1 += 1
            if d > 0.0:
                d = 0.0
                records.append((n, 1, x, d))
                break
            if d < b1:
                # the undershoot opens the idle phase even on the last budgeted
                # observation; the exhaustion pop waits until the phase closes
                b0 = b1 + a_x * (d - b1)
                budget0 = resolve(n_0)
                if budget0 == 0:
                    d = 0.0 if used1 == budget1 else b1
                    records.append((n, 1, x, d))
                    if used1 == budget1:
                        break
                    continue
                d = b0
                records.append((n, 1, x, d))
                used0 = 0
                while True:
                    if n == max_steps:
                        return records, None, "max-steps"
                    n += 1
                    d = d + mu
                    used0 += 1
                    if d > b1 or used0 == budget0:
                        d = 0.0 if used1 == budget1 else b1
                        records.append((n, 0, None, d))
                        break
                    records.append((n, 0, None, d))
                if used1 == budget1:
                    break
                continue
            if used1 == budget1:
                d = 0.0
                records.append((n, 1, x, d))
                break
            records.append((n, 1, x, d))
    return records, None, "max-steps"


def renewal_cycle(m, data_efficient, a, n, mu, llr, next_obs, resolve):
    """Steps per source (index 0 = idle) of one pre-change renewal cycle.

    The cycle starts at the top level m with statistic 0 and ends when the
    statistic first returns to the top level's floor 0: a zero-floor
    excursion at level m, then, on its undershoot, a visit of level m-1 with
    the scaled floor. A visit of level j resolves its budget n[j] on entry
    (zero: never entered) and ends when the statistic climbs above the
    parent floor or the budget is spent; an undershoot of its floor opens a
    visit of level j-1 first, even on the last budgeted observation, and
    snaps back to the floor when that visit ends. Level 1 reflects at its
    floor unless the scheme is data-efficient; level 0 takes no
    observations and climbs by mu per step. a, n, llr and next_obs are
    indexed by level (= experiment id).
    """
    steps = [0] * (m + 1)

    def visit(j, floor, ceiling):
        budget = resolve(n[j])
        if budget == 0:
            return
        used = 0
        d = floor
        if j == 0:
            while True:
                d = d + mu
                steps[0] += 1
                used += 1
                if d > ceiling or used == budget:
                    return
        while True:
            d = d + llr[j](next_obs[j]())
            steps[j] += 1
            used += 1
            if j == 1 and not data_efficient:
                d = max(d, floor)
            if d > ceiling:
                return
            if d < floor:
                visit(j - 1, floor + a[j] * (d - floor), floor)
                d = floor
            if used == budget:
                return

    d = 0.0
    while True:
        d = d + llr[m](next_obs[m]())
        steps[m] += 1
        if d < 0.0:
            break
    if m > 1 or data_efficient:
        visit(m - 1, a[m] * d, 0.0)
    return steps


def run_cusum(threshold, llr, next_x, max_steps=10_000_000):
    """Reflected single-experiment scheme; returns the stopping time or None."""
    d = 0.0
    n = 0
    while n < max_steps:
        x = next_x()
        n += 1
        d = max(d + llr(x), 0.0)
        if d > threshold:
            return n
    return None


def numeric_kl_gaussian(pre, post):
    """D(post || pre) for (mean, std) pairs by adaptive quadrature.

    An oracle for the closed form. scipy is imported here, not at the top,
    so the other oracles do not need this test-only dependency.
    """
    from scipy import integrate

    def logpdf(spec, x):
        mean, std = spec
        z = (x - mean) / std
        return -0.5 * z * z - math.log(std) - 0.5 * math.log(2.0 * math.pi)

    def integrand(x):
        lp = logpdf(post, x)
        return math.exp(lp) * (lp - logpdf(pre, x))

    value, _ = integrate.quad(integrand, -math.inf, math.inf, epsrel=1e-8, limit=200)
    return value
