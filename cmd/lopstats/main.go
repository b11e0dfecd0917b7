// Command lopstats prints the structural property columns of the
// paper's Tables 2 and 3 (nodes, links, diameter, average degree,
// degree standard deviation, average clustering coefficient) and the
// L-opacity report for a graph.
//
// The graph is either an edge-list file (-in) or a built-in calibrated
// dataset stand-in (-dataset; see -list for keys).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	lopacity "repro"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge list file (default: stdin unless -dataset)")
		ds      = flag.String("dataset", "", "built-in dataset key (see -list)")
		seed    = flag.Int64("seed", 1, "seed for -dataset generation")
		l       = flag.Int("L", 1, "path-length threshold for the opacity report")
		list    = flag.Bool("list", false, "list built-in dataset keys and exit")
		opacity = flag.Bool("opacity", false, "include the per-type opacity matrix")
	)
	flag.Parse()

	if *list {
		keys := lopacity.Datasets()
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Println(k)
		}
		return
	}

	if err := run(os.Stdout, *in, *ds, *seed, *l, *opacity); err != nil {
		fmt.Fprintln(os.Stderr, "lopstats:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, in, ds string, seed int64, l int, showOpacity bool) error {
	g, err := load(in, ds, seed)
	if err != nil {
		return err
	}
	p := g.Properties()
	fmt.Fprintf(w, "nodes      %d\n", p.Nodes)
	fmt.Fprintf(w, "links      %d\n", p.Links)
	fmt.Fprintf(w, "diameter   %d\n", p.Diameter)
	fmt.Fprintf(w, "av. deg.   %.2f\n", p.AvgDegree)
	fmt.Fprintf(w, "STDD       %.2f\n", p.DegreeStdDev)
	fmt.Fprintf(w, "ACC        %.4f\n", p.AvgClustering)
	fmt.Fprintf(w, "assort.    %+.4f\n", p.Assortativity)
	fmt.Fprintf(w, "avg path   %.2f\n", p.AvgPathLength)

	rep := g.Opacity(l)
	fmt.Fprintf(w, "max %d-opacity  %.4f\n", rep.L, rep.MaxOpacity)
	if showOpacity {
		fmt.Fprintf(w, "%-12s %8s %8s %10s\n", "type", "|T|", "<=L", "opacity")
		for _, ty := range rep.Types {
			fmt.Fprintf(w, "%-12s %8d %8d %10.4f\n", ty.Label, ty.Total, ty.Within, ty.Opacity)
		}
	}
	return nil
}

func load(in, ds string, seed int64) (*lopacity.Graph, error) {
	if ds != "" {
		return lopacity.Dataset(ds, seed)
	}
	if in == "" {
		return lopacity.ReadEdgeList(os.Stdin)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lopacity.ReadEdgeList(f)
}
