// Command benchmark is the repository's benchmark: what one MUSIC critical
// section costs, end to end and layer by layer, on five named workloads.
//
//	go run . [-seed n] [-seconds s] [-runs k] [-out file.json]   every workload, untraced then traced
//	go run . -workload tcp_section -trace 0|1 [-seed n] [-seconds s]   one run; last line is the result as JSON
//	go run . -compare base.json change.json   one row per workload × end-to-end metric
//
// README.md in this directory has the workload table, the metric dictionary
// and how the metrics are expected to interact.
package main

import (
	"flag"
	"fmt"
	"os"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	runs     int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the result line the driver reads (default: all five, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and of the simulator")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "run length; BENCHMARK.json fixes it for gated runs")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: runs per workload, seeds seed..seed+runs-1")
	flag.StringVar(&o.out, "out", "", "write every run, under one envelope, to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: benchmark -compare base.json change.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files, got %d", len(args))
		}
		return compareFiles(args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case o.seconds < 1 || o.seconds > 60:
		return fmt.Errorf("-seconds %d is outside 1..60", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace %d is neither 0 nor 1", o.trace)
	case o.runs < 1:
		return fmt.Errorf("-runs %d is less than 1", o.runs)
	}

	file := resultFile{Envelope: newEnvelope(o.seed, o.seconds)}
	write := func() error {
		if o.out == "" {
			return nil
		}
		return writeResultFile(o.out, file)
	}

	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runWorkload(w, o.seed, o.seconds, o.trace == 1)
		if err != nil {
			return err
		}
		printRun(os.Stdout, res)
		file.Runs = []runResult{*res}
		if err := write(); err != nil {
			return err
		}
		fmt.Println(contractLine(res))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed or returned a wrong result", w.Name, res.Failed, res.Attempted)
		}
		return nil
	}

	failed := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			for k := 0; k < o.runs; k++ {
				res, err := runWorkload(w, o.seed+int64(k), o.seconds, traced)
				if err != nil {
					return err
				}
				printRun(os.Stdout, res)
				file.Runs = append(file.Runs, *res)
				failed += res.Failed
			}
		}
	}
	if err := write(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or returned a wrong result", failed)
	}
	return nil
}

func compareFiles(basePath, changePath string) error {
	base, err := readResultFile(basePath)
	if err != nil {
		return err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return err
	}
	if bad := printCompare(os.Stdout, base, change, compareSets(base, change)); bad > 0 {
		return fmt.Errorf("%d workload × metric pairings regressed or are missing", bad)
	}
	return nil
}
