// The benchmark is its own module so that it builds from its own
// directory with its own build file; the replace keeps it on the
// checkout's sources, and the painter/ path prefix is what lets it
// import painter/internal/... packages.
module painter/bench

go 1.22

require painter v0.0.0

replace painter => ../
