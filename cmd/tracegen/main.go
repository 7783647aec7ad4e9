// Command tracegen generates, summarizes and validates workload traces
// (the Table 2 job mix) through the public ones SDK, under any named
// scenario's arrival process — including "+"-composed scenarios.
//
// Examples:
//
//	tracegen -jobs 120 -o trace.json
//	tracegen -scenario burst -jobs 200 -o burst.json
//	tracegen -scenario diurnal+spot -summary
//	tracegen -list-scenarios
//	tracegen -in trace.json -summary
//	tracegen -summary -topology 4x8,2x4   # check the trace against a mixed cluster
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"repro/pkg/ones"
)

func main() {
	var (
		jobs         = flag.Int("jobs", 120, "number of jobs to generate")
		interarrival = flag.Float64("interarrival", 12, "mean seconds between arrivals")
		seed         = flag.Int64("seed", 1, "RNG seed")
		maxGPUs      = flag.Int("max-gpus", 8, "largest user GPU request")
		scenarioName = flag.String("scenario", "", "named scenario whose arrival process shapes the trace (see -list-scenarios)")
		topology     = flag.String("topology", "", `cluster shape to check the trace against in -summary, e.g. "4x8,2x4"`)
		listScen     = flag.Bool("list-scenarios", false, "list named scenarios and exit")
		out          = flag.String("o", "", "write the trace as JSON to this file (default: stdout)")
		in           = flag.String("in", "", "read an existing trace instead of generating")
		summary      = flag.Bool("summary", false, "print composition summary instead of JSON")
	)
	flag.Parse()

	if *listScen {
		for _, s := range ones.Scenarios() {
			capacity := "fixed capacity"
			if s.ElasticCapacity {
				capacity = "elastic capacity"
			}
			fmt.Printf("%-14s %-45s arrivals: %s; %s\n", s.Name, s.Title, s.Arrival, capacity)
		}
		return
	}

	var trace *ones.TraceData
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		trace, err = ones.DecodeTrace(data)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		trace, err = ones.GenerateTrace(ones.Trace{
			Jobs:             *jobs,
			MeanInterarrival: *interarrival,
			MaxGPUs:          *maxGPUs,
			Seed:             *seed,
		}, *scenarioName)
		if err != nil {
			fatal(err)
		}
	}

	if *summary {
		s := trace.Summary()
		fmt.Printf("jobs            %d\n", s.Jobs)
		fmt.Printf("makespan        %.1f s (last submission)\n", s.Makespan)
		fmt.Printf("mean GPU req    %.2f (max %d)\n", s.MeanGPUReq, s.MaxGPUReq)
		if *topology != "" {
			sh, err := ones.ParseShape(*topology)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("cluster         %s: %d servers, %d GPUs, %d rack(s)\n",
				sh.Shape, sh.Servers, sh.TotalGPUs, len(sh.Racks))
			for _, r := range sh.Racks {
				fmt.Printf("  rack %-12d %d servers, %d GPUs\n", r.Rack, r.Servers, r.GPUs)
			}
			if s.MaxGPUReq > sh.MaxServerGPUs {
				fmt.Printf("note: largest request (%d GPUs) exceeds the biggest server (%d GPUs); such jobs span machines\n",
					s.MaxGPUReq, sh.MaxServerGPUs)
			}
			if s.MaxGPUReq > sh.TotalGPUs {
				fmt.Printf("warning: largest request (%d GPUs) exceeds the whole cluster (%d GPUs)\n",
					s.MaxGPUReq, sh.TotalGPUs)
			}
		}
		fmt.Println("by class:")
		for _, class := range slices.Sorted(maps.Keys(s.ByClass)) {
			fmt.Printf("  %-14s %d\n", class, s.ByClass[class])
		}
		fmt.Println("by model:")
		for _, model := range slices.Sorted(maps.Keys(s.ByModel)) {
			fmt.Printf("  %-14s %d\n", model, s.ByModel[model])
		}
		return
	}

	data, err := trace.JSON()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d jobs to %s\n", trace.Jobs(), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
