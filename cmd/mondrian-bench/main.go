// Command mondrian-bench regenerates every table and figure of the
// paper's evaluation (§7) and prints them alongside the published values.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/ecocloud-go/mondrian/internal/report"
	"github.com/ecocloud-go/mondrian/internal/simulate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mondrian-bench: ")
	var (
		small  = flag.Bool("small", false, "run the reduced-size configuration (fast)")
		sTup   = flag.Int("s-tuples", 0, "override large-relation cardinality")
		rTup   = flag.Int("r-tuples", 0, "override small join relation cardinality")
		params = flag.Bool("params", false, "print Table 3/4 simulation parameters and exit")
		only   = flag.String("only", "", "run a single experiment: table5|fig6|fig7|fig8|fig9")
		asJSON = flag.Bool("json", false, "emit all artifacts as JSON instead of text")
		par    = flag.Int("parallelism", 0, "host worker pool for per-vault execution (0 = GOMAXPROCS, 1 = serial; results are identical at every setting)")
		cpuOut = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
		memOut = flag.String("memprofile", "", "write a pprof heap profile at exit to `file`")
	)
	flag.Parse()

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	p := simulate.DefaultParams()
	if *small {
		p = simulate.TestParams()
	}
	if *sTup != 0 {
		p.STuples = *sTup
	}
	if *rTup != 0 {
		p.RTuples = *rTup
	}
	p.Parallelism = *par
	// Reject bad overrides up front with the boundary's one-line typed
	// error instead of starting a long run (or, worse, a stack trace).
	if err := p.Validate(); err != nil {
		log.Fatal(err)
	}

	if *params {
		report.WriteParams(os.Stdout, p)
		return
	}

	suite := simulate.NewSuite(p)
	if *asJSON {
		if err := report.WriteJSON(os.Stdout, suite); err != nil {
			log.Fatal(err)
		}
		return
	}
	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("table5", func() error {
		rows, err := suite.Table5()
		if err != nil {
			return err
		}
		report.WriteTable5(os.Stdout, rows)
		return nil
	})
	run("fig6", func() error {
		series, err := suite.Fig6()
		if err != nil {
			return err
		}
		report.WriteFig(os.Stdout, "Figure 6: probe speedup vs CPU (log scale)", series)
		return nil
	})
	run("fig7", func() error {
		series, err := suite.Fig7()
		if err != nil {
			return err
		}
		report.WriteFig(os.Stdout, "Figure 7: overall speedup vs CPU (log scale)", series)
		return nil
	})
	run("fig8", func() error {
		entries, err := suite.Fig8()
		if err != nil {
			return err
		}
		report.WriteFig8(os.Stdout, entries)
		return nil
	})
	run("fig9", func() error {
		series, err := suite.Fig9()
		if err != nil {
			return err
		}
		report.WriteFig(os.Stdout, "Figure 9: efficiency improvement vs CPU (log scale)", series)
		return nil
	})
	fmt.Println()
}
