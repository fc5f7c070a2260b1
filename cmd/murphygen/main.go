// Command murphygen generates telemetry snapshots for cmd/murphy and for
// offline experimentation: either an enterprise environment with one of the
// 13 Table-1 incidents injected, or a DeathStarBench-style microservice
// scenario (performance interference or resource contention).
//
// Usage:
//
//	murphygen -kind enterprise -incident 2 -out db.json
//	murphygen -kind interference -out db.json
//	murphygen -kind contention -topo social -out db.json
package main

import (
	"flag"
	"fmt"
	"os"

	"murphy/internal/enterprise"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

func main() {
	var (
		kind     = flag.String("kind", "enterprise", "dataset kind: enterprise, interference, contention, metrics")
		incident = flag.Int("incident", 2, "enterprise incident index 1-13 (0 = no incident)")
		topo     = flag.String("topo", "hotel", "microservice topology: hotel or social")
		apps     = flag.Int("apps", 8, "number of enterprise applications")
		steps    = flag.Int("steps", 320, "time slices to simulate")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "-", "output path (default stdout)")
	)
	flag.Parse()

	var db *telemetry.DB
	switch *kind {
	case "enterprise":
		gen := enterprise.DefaultGenOptions()
		gen.Apps = *apps
		gen.Steps = *steps
		gen.Seed = *seed
		gen.Hosts = *apps
		if *incident == 0 {
			env, err := enterprise.Generate(gen)
			if err != nil {
				fatal(err)
			}
			if err := env.Run(); err != nil {
				fatal(err)
			}
			db = env.DB
		} else {
			env, inc, err := enterprise.RunIncident(gen, enterprise.ByIndex(*incident))
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "incident %d: %s\n  symptom: %s\n  ground truth: %v\n",
				inc.Index, inc.Name, inc.Symptom, inc.Truth)
			db = env.DB
		}
	case "metrics":
		gen := enterprise.DefaultGenOptions()
		gen.Apps = *apps
		gen.Steps = *steps
		gen.Seed = *seed
		gen.Hosts = *apps
		env, err := enterprise.Generate(gen)
		if err != nil {
			fatal(err)
		}
		if err := env.Run(); err != nil {
			fatal(err)
		}
		db = env.DB
	case "interference":
		opts := microsim.DefaultInterferenceOptions()
		opts.Steps = *steps
		opts.Seed = *seed
		sc, err := microsim.Interference(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "scenario %s\n  symptom: %s\n  ground truth: %s\n", sc.Name, sc.Symptom, sc.TruthEntity)
		db = sc.Result.DB
	case "contention":
		opts := microsim.DefaultContentionOptions()
		opts.Topo = *topo
		opts.Steps = *steps
		opts.Seed = *seed
		sc, err := microsim.Contention(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "scenario %s\n  symptom: %s\n  ground truth: %s\n", sc.Name, sc.Symptom, sc.TruthEntity)
		db = sc.Result.DB
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := db.WriteJSON(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d entities, %d time slices\n", db.NumEntities(), db.Len())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "murphygen: %v\n", err)
	os.Exit(1)
}
