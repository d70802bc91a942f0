PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint golden

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro lint all --strict

# Rewrite the paper-scale golden artifacts under tests/data and print
# every number that moved.
golden:
	$(PYTHON) -m tests.golden
