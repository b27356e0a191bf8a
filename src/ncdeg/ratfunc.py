"""The degree sentinels: NEG_INF is the degree of the zero polynomial and
the value of a -inf level, POS_INF an unbounded step, so that max, min
and + behave."""

NEG_INF = float("-inf")
POS_INF = float("inf")
