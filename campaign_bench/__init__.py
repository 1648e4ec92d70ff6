"""Campaign benchmark of the AutoMoDe reproduction.

A *campaign* is what a user of the library waits for: a scenario battery
compiled, simulated, traced and folded into a coverage report, or a
coverage search run to full transition coverage.  ``run.py`` is the one
entry point; see its docstring for the command line.
"""
