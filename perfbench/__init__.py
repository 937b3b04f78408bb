"""The repository benchmark: cold CLI portfolio recommendations and
advisor-service traffic, with an optional traced run that attributes wall
time to layers.

Entry point: ``python3 perfbench/run.py --workload cli|service|all``
(see ``perfbench/README.md``).  Nothing here changes the program under
test; the traced run wraps the program's public functions from outside.
"""
