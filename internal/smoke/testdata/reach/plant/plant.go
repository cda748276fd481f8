// Package plant holds the gate's plants: funcs and fields production
// reaches in each way the gate knows, and those it must report.
package plant

import (
	"container/heap"
	"flag"
	"sort"
	"strconv"
)

// Meter is reached: main builds one and calls Add.
type Meter struct{ n int }

func (m *Meter) Add(d int) { m.n += d }

// Len is an unused exported method: a finding.
func (m *Meter) Len() int { return m.n }

// String is reached through fmt.Stringer on a reached type.
func (m *Meter) String() string { return strconv.Itoa(m.n) }

type Server struct{ addr string }

func NewServer(addr string) *Server { return &Server{addr: addr} }

func (s *Server) Serve() string { return "serving " + s.addr }

// Config is an unused exported method: a finding.
func (s *Server) Config() string { return s.addr }

// clamp is an unused unexported helper: a finding.
func clamp(x, lo, hi int) int { return max(lo, min(x, hi)) }

// Mean is called only from plant_test.go: a finding.
func Mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ghost is named by nothing but its own method, so its String, though
// it satisfies fmt.Stringer, is a finding.
type ghost struct{}

func (ghost) String() string { return "ghost" }

// level is a flag.Value that production passes through flag.Var.
type level int

func (l *level) String() string { return strconv.Itoa(int(*l)) }

func (l *level) Set(s string) error {
	v, err := strconv.Atoi(s)
	*l = level(v)
	return err
}

func RegisterFlags(fs *flag.FlagSet) {
	var l level
	fs.Var(&l, "level", "a level")
}

// queue is a heap.Interface.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Drain returns xs in ascending order.
func Drain(xs []int) []int {
	q := queue(xs)
	heap.Init(&q)
	var out []int
	for q.Len() > 0 {
		out = append(out, heap.Pop(&q).(int))
	}
	return out
}

// sizer is a module interface production names.
type sizer interface{ Size() int }

type box struct{}

// Size is reached through sizer.
func (box) Size() int { return 1 }

// Total sums what sizers report.
func Total() int {
	n := 0
	for _, s := range []sizer{box{}} {
		n += s.Size()
	}
	return n + countdown(0)
}

// countdown refers to itself; that alone does not reach it, but Total
// calls it.
func countdown(n int) int {
	if n <= 0 {
		return 0
	}
	return countdown(n - 1)
}

// spin only refers to itself: a finding.
func spin(n int) int {
	if n <= 0 {
		return 0
	}
	return spin(n - 1)
}

// Tally holds one field per write rule of the field gate. Only Count is
// read by production (main); the others are findings.
type Tally struct {
	Count    int
	written  int      // only assigned
	testOnly int      // read only from plant_test.go
	log      []string // only self-appended
	slots    []int    // only element-written
	hits     int      // only op-assigned and incremented
	keyed    string   // only a composite-literal key
	_        [8]byte  // padding: skipped
}

func NewTally() *Tally { return &Tally{Count: 1, keyed: "k", slots: make([]int, 2)} }

func (t *Tally) Record(s string) {
	t.written = len(s)
	t.testOnly = len(s)
	t.log = append(t.log, s)
	t.log = append(t.log[:0], s)
	t.slots[0] = len(s)
	t.hits += 2
	t.hits++
	t.Count++
}

// cell is a map key and span an operand of ==: every field of each is
// read by the lookup or the comparison, though no selector reads it.
type cell struct{ row, col int }

type span struct{ lo, hi int }

func Occupied(r, c int) bool {
	m := map[cell]bool{{row: 1, col: 2}: true}
	return m[cell{row: r, col: c}] || span{lo: r} == span{hi: c}
}

// Report reaches fmt as an interface: fmt reads its exported fields and,
// through Inner, Detail's. Its unexported note is a finding.
type Report struct {
	Name  string
	Inner Detail
	note  string
}

type Detail struct{ Level int }

func NewReport() Report { return Report{Name: "r", Inner: Detail{Level: 1}, note: "n"} }

// pair reaches sort.Slice as an interface, which shows its fields to no
// reader: Key, only written, is a finding.
type pair struct {
	Key string
	Val int
}

func SortPairs(vs []int) int {
	ps := make([]pair, len(vs))
	for i, v := range vs {
		ps[i] = pair{Key: "p", Val: v}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Val < ps[j].Val })
	return ps[0].Val
}
