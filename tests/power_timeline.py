"""A node's power stretches and their charge, rebuilt from a report's timeline.

A run keeps no power trace: each node charges a stretch as it closes, and the
timeline's ``mode`` entries (``power_mode`` and ``wake``) are the one record
of its stretches.  These helpers rebuild them for tests.
"""

from icsim import power as pw


def power_stretches(report, sc, node_id):
    """(start_s, end_s, mode) of each stretch node_id spent in one power mode.

    The master starts in RUN and a slave in STOP1, each ``mode`` entry of the
    node starts a stretch, and the last one ends at sc.duration_s.
    """
    changes = [(e["time_s"], e["mode"]) for e in report.timeline
               if e["node"] == node_id and "mode" in e]
    starts = [(0.0, "RUN" if node_id == "master" else "STOP1"), *changes]
    ends = [t for t, _ in changes] + [sc.duration_s]
    return [(lo, hi, mode) for (lo, mode), hi in zip(starts, ends)]


def charge_of_stretches(report, sc, node_id):
    """(uAh, joules) of node_id's stretches under its budget in sc, as a run charges them.

    The charges are added with += in stretch order, as a run adds them: sum()
    compensates float sums from Python 3.12 on, and the totals are compared
    bitwise.
    """
    budgets = {"master": sc.master_budget,
               **{f"slave{i + 1}": spec.budget for i, spec in enumerate(sc.slaves)}}
    uah = 0.0
    for lo, hi, mode in power_stretches(report, sc, node_id):
        uah += pw.charge_consumed(mode, hi - lo, budgets[node_id], pw.STANDBY_BUDGET_MODES)
    return uah, pw.uah_to_joules(uah)
