GO ?= go
OCLINT := $(CURDIR)/bin/oclint

.PHONY: all build test race lint bench fuzz clean

all: build lint test

build:
	$(GO) build ./...

# bench/ is a module of its own (it must also build against older
# checkouts), so ./... skips it; vet and test it explicitly so its use
# of the router's API is compiled on every run.
test:
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race ./internal/...

# lint checks formatting, runs the standard vet suite, then the repo's
# own analyzers (maporder, checkedverify, pointkey, staticdrc,
# shadowbuiltin, nondeterm, hotalloc) over every package and its test
# files — the same run CI's lint job makes with -github annotations.
lint: $(OCLINT)
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(OCLINT) ./...

$(OCLINT): FORCE
	$(GO) build -o $(OCLINT) ./cmd/oclint

FORCE:

bench:
	$(GO) test -bench=. -benchmem ./...

# fuzz smoke-runs each fuzz target for a short burst (go's -fuzz flag
# accepts one target per invocation). Crashers land under the package's
# testdata/fuzz/ (internal/channel, internal/core, internal/gen,
# internal/geom, internal/robust/fault, internal/tig, internal/verify)
# and replay via plain `go test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/channel -run='^$$' -fuzz=FuzzGreedy -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/channel -run='^$$' -fuzz=FuzzDoglegAndNetMerge -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzShape -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gen -run='^$$' -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/geom -run='^$$' -fuzz=FuzzBits -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/robust/fault -run='^$$' -fuzz=FuzzProposed -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/robust/fault -run='^$$' -fuzz=FuzzTIGSearch -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tig -run='^$$' -fuzz=FuzzSearchMatchesReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/verify -run='^$$' -fuzz=FuzzVerify -fuzztime=$(FUZZTIME)

clean:
	rm -rf bin
