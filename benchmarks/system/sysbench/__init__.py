"""The system benchmark: four pipeline workloads measured from outside.

``run.py`` is the entry point; see ``README.md`` for the metric dictionary.
"""
