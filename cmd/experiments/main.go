// Command experiments regenerates the paper's evaluation artifacts: the
// survey figures (Figure 4), the accuracy figures (Figure 15), the timing
// numbers of Section 5.1, the ambiguity blow-up of Section 4.2.1, and the
// ablations this reproduction adds.
//
// Usage:
//
//	experiments [fig4a|fig4b|fig15|timing|ambiguity|baseline|repair|induce|sweep|errors|all]
//
// With no argument, all experiments run.
package main

import (
	"fmt"
	"os"

	"formext/internal/experiments"
)

func main() {
	what := "all"
	if len(os.Args) > 1 {
		what = os.Args[1]
	}
	w := os.Stdout
	switch what {
	case "fig4a":
		experiments.RunFig4a(w)
	case "fig4b":
		experiments.RunFig4b(w)
	case "fig15":
		experiments.RunFig15(w)
	case "timing":
		experiments.RunTiming(w)
	case "ambiguity":
		experiments.RunAmbiguity(w)
	case "errors":
		experiments.RunErrors(w)
	case "sweep":
		experiments.RunSweep(w)
	case "induce":
		experiments.RunInduce(w)
	case "repair":
		experiments.RunRepair(w)
	case "baseline":
		experiments.RunBaseline(w)
	case "all":
		experiments.RunAll(w)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want fig4a, fig4b, fig15, timing, ambiguity, baseline, repair, induce, sweep, errors, all)\n", what)
		os.Exit(2)
	}
}
