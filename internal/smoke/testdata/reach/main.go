// Command reach is the production side of the reachability gate's
// fixture: what it calls, directly or through an interface, is reached.
package main

import (
	"flag"
	"fmt"

	"reach/plant"
)

func main() {
	m := &plant.Meter{}
	m.Add(2)
	fmt.Println(m)
	s := plant.NewServer(":0")
	fmt.Println(s.Serve())
	fs := flag.NewFlagSet("reach", flag.ContinueOnError)
	plant.RegisterFlags(fs)
	fmt.Println(plant.Drain([]int{3, 1, 2}), plant.Total())
	tl := plant.NewTally()
	tl.Record("x")
	fmt.Println(tl.Count, plant.Occupied(1, 2), plant.NewReport(), plant.SortPairs([]int{2, 1}))
}
