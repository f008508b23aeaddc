GO ?= go

# Every demo under examples/ must run to completion; each is bounded by
# this timeout so a hung example fails CI instead of wedging it.
EXAMPLE_TIMEOUT ?= 120s

.PHONY: build test vet dope-vet examples stalls bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Standard vet plus the repo's own protocol analyzers (cmd/dope-vet),
# run both through the go vet unitchecker driver (which exercises the
# cross-package vetx fact flow) and as the standalone binary.
vet: dope-vet
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/bin/dope-vet ./...
	./bin/dope-vet ./...

dope-vet:
	$(GO) build -o bin/dope-vet ./cmd/dope-vet

examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		timeout $(EXAMPLE_TIMEOUT) $(GO) run ./$$d; \
	done

# Stall-tolerance and overload-protection experiment (EXPERIMENTS.md).
stalls:
	$(GO) run ./cmd/dope-bench -exp stalls

# Begin/End hot-path and queue-hop microbenchmarks with the allocation
# gate CI runs on every push. Add OUT=BENCH_beginend.json to append a
# labeled entry to the checked-in trajectory file when recording a
# milestone.
BENCH_LABEL ?= dev
OUT ?=
bench:
	$(GO) run ./cmd/dope-bench -bench beginend -label $(BENCH_LABEL) \
		$(if $(OUT),-out $(OUT),) -gate

ci: build vet test examples
