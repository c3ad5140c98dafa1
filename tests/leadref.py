"""Quadratic greedy pairing of alarm events, the reference for ``lead_time``'s tests.

For every autoencoder event the rule events are scanned from the first,
skipping the ones already claimed, and the first whose start lies within
±window of the autoencoder start is claimed. Inputs must be sorted by start
and the window must be >= 0; the reference checks neither.
``bgpnovelty.detector.lead_time`` must return the same pairs on every such
input.
"""

from __future__ import annotations

from bgpnovelty.series import MINUTE


def reference_lead_time(ae_events, rule_events, match_window_minutes):
    window_s = match_window_minutes * MINUTE
    claimed = [False] * len(rule_events)
    matches = []
    for ae in ae_events:
        found = None
        for i, rule in enumerate(rule_events):
            if claimed[i]:
                continue
            if rule.start_s > ae.start_s + window_s:
                break
            if rule.start_s >= ae.start_s - window_s:
                found = i
                break
        if found is None:
            matches.append((ae, None, None))
        else:
            claimed[found] = True
            rule = rule_events[found]
            matches.append((ae, rule, (rule.start_s - ae.start_s) // MINUTE))
    return matches
