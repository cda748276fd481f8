// Package benchmeta stamps the benchmark's result files (bench/) with
// provenance: the git commit they were produced at and the generation
// timestamp. Deterministic library code never calls Collect, so solver
// and simulator outputs stay reproducible run-to-run.
package benchmeta

import (
	"os/exec"
	"strings"
	"time"
)

// Meta is the provenance header of a bench/results/ file.
type Meta struct {
	GitCommit   string `json:"git_commit,omitempty"`
	GeneratedAt string `json:"generated_at,omitempty"`
}

// Collect returns the current commit (git rev-parse HEAD; empty outside
// a repository) and the current UTC time in RFC 3339.
func Collect() Meta {
	m := Meta{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	return m
}
