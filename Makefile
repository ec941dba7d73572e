# Development targets for bgpbench. The pre-merge gate and its steps are
# defined once, in scripts/ci.sh; `make check` runs all of it and each
# step is also a target (`make lint`, `make stress`, ...).

GO ?= go
GOFMT ?= gofmt
export GO GOFMT

STEPS := build fmt vet lint race conformance stress fuzz bench-smoke benchmark test

.PHONY: all check lint-allows bench $(STEPS)

all: check

check:
	sh scripts/ci.sh

$(STEPS):
	sh scripts/ci.sh $@

# Regenerate the suppression inventory embedded in the docs from the
# //bgplint:allow directives in the source.
lint-allows:
	$(GO) run ./cmd/bgplint -allows docs/lint-allows.md ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
