// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compile or run it. Its path
// sits under the parent module's, which is what lets it import
// hbh/internal/...; the replace points at the checkout it lives in.
module hbh/bench

go 1.22

require hbh v0.0.0

replace hbh => ../
