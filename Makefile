PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro lint all --strict
