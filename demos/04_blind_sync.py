"""Blind user identification from channel activity alone.

The receiver sees only idle / success / collision per slot, yet can decide
who is transmitting and from when.  First a guaranteed setting (q > 2p^2,
few users), then the small classroom setting where the guarantee fails and
one user's start is misdated.
"""

from crtseq import CrtParams, Variant
from crtseq.channel import Scenario, UserSpec, activity_text, channel_activity, simulate
from crtseq.sync import judge, run_detector

# guaranteed: p=5, q=51 > 2p^2, three users with session starts 100/40/388
params = CrtParams(5, 51, Variant.MODIFIED)
duration = 3 * params.L
users = tuple(
    UserSpec(g, g, None, ((start, duration),))
    for g, start in ((1, 100), (2, 40), (4, 388))
)
scenario = Scenario(params, users, duration)
events = run_detector(channel_activity(simulate(scenario)), params)
print(judge(scenario, events))
for event in events:
    print(" ", event)

# not guaranteed: q = 8 << 2p^2 and five users; user 6 starts at slot 1 but
# the channel activity also matches its schedule at slot 0
small = CrtParams(7, 8, Variant.MODIFIED)
crowd = tuple(
    UserSpec(g, g, off) for g, off in ((1, 0), (2, 0), (3, 1), (4, 1), (6, 1))
)
scenario = Scenario(small, crowd, 58)
signal = channel_activity(simulate(scenario))
events = run_detector(signal, small)
print("\nactivity:", activity_text(signal))
print(judge(scenario, events))
for event in events:
    print(" ", event)
print("note: user 6 is reported at slot 0 although it started at slot 1")
