// Package painter is the root of the PAINTER reproduction: ingress
// traffic engineering and routing for enterprise cloud networks
// (Koch et al., ACM SIGCOMM 2023).
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory) with checked Examples beside its tests, and runnable
// binaries under cmd/. The benchmarks in bench_test.go regenerate every
// table and figure of the paper's evaluation; EXPERIMENTS.md records
// paper-vs-measured outcomes.
package painter
