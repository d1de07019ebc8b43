// Command musicbench regenerates the tables and figures of the paper's
// evaluation (§VIII, §X-B) on the simulated substrates and prints them as
// aligned text or markdown.
//
// Usage:
//
//	musicbench -exp all                 # every artifact (minutes of wall time)
//	musicbench -exp fig4a,fig6a -quick  # selected artifacts, small sweeps
//	musicbench -list                    # enumerate experiment ids
//	musicbench -exp all -markdown > results.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "musicbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("musicbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "comma-separated experiment ids, or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		quick    = fs.Bool("quick", false, "shorter measurement windows and smaller sweeps")
		markdown = fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		jsonOut  = fs.String("json", "", "with -exp naming one of fastpath, soak, scale or readpath: also write its per-config results as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("pick experiments with -exp (ids: %s, or 'all')", strings.Join(bench.IDs(), ", "))
	}

	opts := bench.Options{Quick: *quick, JSON: *jsonOut}
	if !*quiet {
		opts.Log = os.Stderr
	}
	tables, err := bench.Run(strings.Split(*exp, ","), opts)
	if err != nil {
		return err
	}
	fmt.Print(bench.Render(tables, *markdown))
	return nil
}
